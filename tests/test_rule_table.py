"""The rule table (``kernel._RULE_TABLE``) and the node validation it gives.

Every node's conclusion is pinned to a frozen copy of ``_mk`` as it was
before the table held the conclusions, one ``if`` branch per rule.  ``check``
reports a node over a number of premises its rule does not take instead of
raising.  The public keyword constructor refuses nodes that are not what
they claim, and a property test mutates corpus trees through it: each
mutant is refused with ``ValueError`` or checked without an exception, and
every mutant that checks reads back from its proof file and is not refuted
by the bounded semantics.
"""

from __future__ import annotations

import dataclasses
import random

import pytest
from hypothesis import given, settings, strategies as st

import proofgen
from posnd import kernel as K
from posnd.semantics import Bounds, soundness_probe
from posnd.syntax import (
    And, Atom, Bottom, Box, Dia, EFormula, Imp, Or, PFormula, concat,
)
from test_freshen_oracle import coherent_trees
from test_kernel import built_trees, rule_samples

P, Q = Atom("p"), Atom("q")
S4 = K.System("s4", "classical")
SYSTEMS = [K.System(lg, fl) for lg in K.LOGICS for fl in K.FLAVORS]


# --- the conclusion oracle -------------------------------------------------


def _ref_pf(d):
    c = d.conclusion
    if isinstance(c, PFormula):
        return c
    return PFormula(Bottom(), c.position)


def reference_conclusion(rule, premises, content, ante, other, target, beta):
    """The conclusion ``_mk`` computed before the rule table, one branch per
    rule."""
    if rule == "hyp" or rule == "ehyp":
        return content
    if rule == "and-i":
        l, r = _ref_pf(premises[0]), _ref_pf(premises[1])
        return PFormula(And(l.formula, r.formula), l.position)
    if rule == "and-e1":
        c = _ref_pf(premises[0])
        return PFormula(c.formula.left, c.position) if isinstance(c.formula, And) else c
    if rule == "and-e2":
        c = _ref_pf(premises[0])
        return PFormula(c.formula.right, c.position) if isinstance(c.formula, And) else c
    if rule == "or-i1":
        c = _ref_pf(premises[0])
        return PFormula(Or(c.formula, other), c.position)
    if rule == "or-i2":
        c = _ref_pf(premises[0])
        return PFormula(Or(other, c.formula), c.position)
    if rule == "or-e":
        return _ref_pf(premises[1])
    if rule == "imp-i":
        c = _ref_pf(premises[0])
        a = ante if ante is not None else PFormula(Bottom(), c.position)
        return PFormula(Imp(a.formula, c.formula), c.position)
    if rule == "imp-e":
        c = _ref_pf(premises[0])
        return PFormula(c.formula.right, c.position) if isinstance(c.formula, Imp) else c
    if rule in ("bot-c", "bot-i"):
        return target
    if rule == "box-i":
        c = _ref_pf(premises[0])
        return PFormula(Box(c.formula), c.position[:-1] if c.position else ())
    if rule == "box-e":
        c = _ref_pf(premises[0])
        body = c.formula.body if isinstance(c.formula, Box) else c.formula
        return PFormula(body, concat(c.position, beta or ()))
    if rule == "dia-i":
        c = _ref_pf(premises[0])
        b = beta or ()
        pos = c.position
        base = pos[: len(pos) - len(b)] if pos[len(pos) - len(b) :] == b else pos
        return PFormula(Dia(c.formula), base)
    if rule == "dia-e":
        return _ref_pf(premises[1])
    raise ValueError(f"unknown rule {rule!r}")


def _reference_of(n):
    return reference_conclusion(
        n.rule, n.premises, n.content, n.ante, n.other, n.target, n.beta
    )


def test_conclusions_match_the_reference():
    nodes = 0
    for d in built_trees():
        for n in d:
            assert n.conclusion == _reference_of(n)
            nodes += 1
    assert nodes > 1500


def test_ill_shaped_conclusions_match_the_reference():
    # Random trees that mostly do not check: majors of the wrong connective,
    # steps that are not suffixes, witness tokens off their positions.
    nodes = 0
    for d in coherent_trees(7, 150):
        for n in d:
            assert n.conclusion == _reference_of(n)
            assert K._mk(n.rule, n.premises, *K._node_data(n)[2:]).conclusion == (
                _reference_of(n)
            )
            nodes += 1
    assert nodes > 1000


# --- a wrong number of premises ---------------------------------------------


def _wrong_counts(rule):
    counts = K._RULE_TABLE[rule].counts
    return [k for k in (counts[0] - 1, counts[-1] + 1) if k >= 0]


@pytest.mark.parametrize("rule", K.RULES)
def test_check_reports_a_wrong_premise_count(rule):
    good = rule_samples()[rule]
    spare = K.hyp("s", Q, ())
    counts = " or ".join(map(str, K._RULE_TABLE[rule].counts))
    for k in _wrong_counts(rule):
        premises = (good.premises + (spare,) * k)[:k]
        bad = K._node(rule, premises, good.conclusion, *K._node_data(good)[2:])
        for tree, path in ((bad, ()), (K.and_i(bad, spare), (0,))):
            for system in SYSTEMS:
                report = K.check(tree, system)
                at = [
                    v.message for v in report.violations
                    if v.path == path and v.rule == rule
                ]
                assert not report.ok
                assert any(
                    m.startswith(f"expects {counts} premise") and m.endswith(f"got {k}")
                    for m in at
                ), at
        # The public constructor refuses the node outright.
        with pytest.raises(ValueError, match=f"expects {counts} premises?, got {k}"):
            dataclasses.replace(good, premises=premises)


def test_check_reports_an_unknown_rule():
    bad = K._node("no-such-rule", (), PFormula(P, ()), *K._DEFAULTS)
    report = K.check(K.and_i(bad, K.hyp("s", Q, ())), K.System("s4"))
    assert [(v.path, v.rule, v.message) for v in report.violations] == [
        ((0,), "no-such-rule", "unknown rule")
    ]


# --- the public constructor ------------------------------------------------


def _kw(rule, premises, conclusion, **fields):
    return K.Derivation(rule=rule, premises=premises, conclusion=conclusion, **fields)


REFUSED = [
    (lambda u: _kw("and-i", (u,) * 4, PFormula(And(P, P), ())), "expects 2 premises, got 4"),
    (lambda u: _kw("and-e1", (), PFormula(P, ())), "expects 1 premise, got 0"),
    (lambda u: _kw("cut", (u,), u.conclusion), "unknown rule"),
    (lambda u: dataclasses.replace(u, token="x"), "token is not a field of the rule"),
    (
        lambda u: dataclasses.replace(K.imp_i(frozenset({"u"}), u), discharges=()),
        "expects 1 discharge label set, got 0",
    ),
    (lambda u: dataclasses.replace(u, content=None, conclusion=None), "missing content"),
    (lambda u: dataclasses.replace(K.or_i1(Q, u), other=None), "missing other"),
    (
        lambda u: dataclasses.replace(u, content=EFormula(()), conclusion=EFormula(())),
        "it concludes a p-formula",
    ),
    (
        lambda u: _kw("ehyp", (), u.content, label="e", content=u.content),
        "it concludes an existence formula",
    ),
    (
        lambda u: dataclasses.replace(K.box_e(K.hyp("b", Box(P), ()), ("x",)), beta=("y",)),
        r"the stored conclusion is not the computed p\^\(y\)",
    ),
]


@pytest.mark.parametrize("build,fault", REFUSED, ids=[f for _b, f in REFUSED])
def test_the_keyword_constructor_refuses(build, fault):
    with pytest.raises(ValueError, match=fault):
        build(K.hyp("u", P, ()))


UNWRITABLE = [
    (lambda: K.hyp("a b", P, ()), "label 'a b'"),
    (lambda: K.ehyp("007", ("x",)), "label '007'"),
    (lambda: K.imp_i(frozenset({"(u"}), K.hyp("(u", P, ())), "label '\\(u'"),
    (lambda: K.box_i("x", frozenset({'"e"'}), K.hyp("u", P, ("x",))), "label '\"e\"'"),
    (lambda: K.box_i("x y", frozenset(), K.hyp("u", P, ("x y",))), "token 'x y'"),
    (
        lambda: K.dia_e(
            K.hyp("d", Dia(P), ()), ":w", frozenset(), frozenset(), K.hyp("v", Q, ())
        ),
        "token ':w'",
    ),
]


@pytest.mark.parametrize("build,fault", UNWRITABLE, ids=[f for _b, f in UNWRITABLE])
def test_the_keyword_constructor_refuses_what_a_proof_file_cannot_carry(build, fault):
    node = build()
    K.check(node, S4)  # the checker takes it as before
    with pytest.raises(ValueError, match=fault + " cannot be written in a proof file"):
        dataclasses.replace(node)


def test_the_keyword_constructor_takes_reserved_tokens_and_odd_symbols():
    for node in (
        K.box_i("_7", frozenset({"e"}), K.hyp("u", P, ("_7",))),
        K.hyp("a:b", P, ()),
        K.hyp("7a", P, ()),
        K.hyp("٣", P, ()),
    ):
        assert dataclasses.replace(node) == node


def test_printing_refuses_a_label_it_cannot_write():
    d = K.imp_i(frozenset({"a b"}), K.hyp("a b", P, ()))
    assert K.check(d, S4).ok
    with pytest.raises(ValueError, match="label 'a b' cannot be written in a proof file"):
        K.print_proof(d, S4)
    with pytest.raises(ValueError, match="label '12' cannot be written"):
        K.print_proof(K.hyp("12", P, ()), S4)


def test_check_reports_refuse_an_open_label_they_cannot_write():
    k = K.System("k", "classical")
    for d, system in (
        (K.hyp("a b", P, ()), S4),
        (K.ehyp("a b", ("x",)), k),
        (K.and_i(K.hyp("u", P, ()), K.hyp("a b", P, ())), S4),
    ):
        report = K.check(d, system)
        assert report.open_assumptions  # the checker takes it as before
        with pytest.raises(ValueError, match="label 'a b' cannot be written in a proof file"):
            K.print_check_report(report)
    with pytest.raises(ValueError, match="label '12' cannot be written"):
        K.print_check_report(K.check(K.hyp("12", P, ()), S4))


# --- mutated corpus trees --------------------------------------------------


def corpus():
    rng = random.Random("rule-table-corpus")
    out = [
        (proofgen.random_derivation(rng, system, steps=8), system)
        for system in SYSTEMS
        for _ in range(2)
    ]
    out += [K.builtin(axiom, logic) for axiom, logic in K.BUILTIN_PAIRS]
    return out


CORPUS = corpus()
NODES = [n for d, _ in CORPUS for n in d]
#: For each node field, the values it takes anywhere in the corpus.
VALUES = {
    f: sorted({getattr(n, f) for n in NODES} | {d}, key=repr)
    for f, d in zip(K._FIELDS, K._DEFAULTS)
}
CONCLUSIONS = sorted({n.conclusion for n in NODES}, key=repr)


def _replaced(d, path, new):
    """``d`` with the node at ``path`` replaced by ``new``, every node above
    it made again by the keyword constructor with its conclusion computed."""
    if not path:
        return new
    i, rest = path[0], path[1:]
    premises = list(d.premises)
    premises[i] = _replaced(d.premises[i], rest, new)
    data = {f: getattr(d, f) for f in K._FIELDS}
    conclusion = K._mk(d.rule, tuple(premises), **data).conclusion
    return K.Derivation(
        rule=d.rule, premises=tuple(premises), conclusion=conclusion, **data
    )


def mutation(choose):
    """A corpus tree, its system, the path of one of its nodes and that
    node's fields with its rule, premises, one field or its conclusion
    changed; ``choose(options)`` picks each choice.  Half the time the
    conclusion is then made the one the changed node computes, if it takes
    that many premises."""
    d, system = choose(CORPUS)
    nodes, parent, slot, _end, _post = K._preorder(d)
    i = choose(range(len(nodes)))
    node = nodes[i]
    values = {f.name: getattr(node, f.name) for f in dataclasses.fields(node)}
    what = choose(["rule", "premises", "field", "conclusion"])
    if what == "rule":
        values["rule"] = choose(K.RULES + ("no-such-rule",))
    elif what == "premises":
        premises = list(node.premises)
        at = choose(range(len(premises) + 1))
        if premises and choose([True, False]):
            del premises[min(at, len(premises) - 1)]
        else:
            premises.insert(at, choose(NODES))
        values["premises"] = tuple(premises)
    elif what == "field":
        field = choose(K._FIELDS)
        values[field] = choose(VALUES[field])
    else:
        values["conclusion"] = choose(CONCLUSIONS)
    spec = K._RULE_TABLE.get(values["rule"])
    fits = spec is not None and len(values["premises"]) in spec.counts
    if what != "conclusion" and fits and choose([True, False]):
        data = [values[f] for f in K._FIELDS]
        made = K._mk(values["rule"], values["premises"], *data)
        values["conclusion"] = made.conclusion
    return d, system, K._path_of(i, parent, slot), values


def judge(d, system, path, values) -> str:
    """Build the mutant through the public constructor and judge it: refused
    with ``ValueError``, or checked; if it checks, its proof file reads back
    as it and the bounded semantics does not refute it."""
    try:
        mutant = _replaced(d, path, K.Derivation(**values))
    except ValueError:
        return "refused"
    report = K.check(mutant, system)
    if not report.ok:
        return "fails"
    back, read_system = K.parse_proof(K.print_proof(mutant, system))
    assert back == K.sanitize_tokens(mutant) and read_system == system
    assert soundness_probe(mutant, system, Bounds(1, 1, 1))
    return "checks"


@settings(max_examples=400, deadline=None, derandomize=True)
@given(st.data())
def test_mutated_trees_are_refused_or_checked(data):
    judge(*mutation(lambda options: data.draw(st.sampled_from(options))))


def test_mutations_reach_every_outcome():
    # The property is not vacuous: mutants are refused, fail the check, and
    # check.
    rng = random.Random("outcomes")
    seen = [
        judge(*mutation(lambda options: rng.choice(list(options))))
        for _ in range(400)
    ]
    assert set(seen) == {"refused", "fails", "checks"}


def test_the_forged_proof_is_refused_and_would_be_unsound():
    # The forged closed proof of ``p -> bottom``, as a mutation of a tree
    # through the public constructor: its ``and-i`` is refused.
    u = K.hyp("u", P, ())
    d, system = K.imp_i(frozenset({"u"}), K.and_i(u, u)), K.System("s4", "intuitionistic")
    node = d.premises[0]
    values = {f.name: getattr(node, f.name) for f in dataclasses.fields(node)}
    values["conclusion"] = PFormula(Bottom(), ())
    assert judge(d, system, (0,), values) == "refused"
    # Why: ``check`` trusts stored conclusions.  Built with ``_node``, which
    # validates nothing, the forgery checks, and the bounded semantics
    # refutes it.
    forged = K.imp_i(frozenset({"u"}), K._node(*values.values()))
    report = K.check(forged, system)
    assert report.ok and report.open_assumptions == ()
    assert forged.conclusion == PFormula(Imp(P, Bottom()), ())
    assert not soundness_probe(forged, system, Bounds(1, 1, 1))
