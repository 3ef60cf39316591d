"""The walks on ``kernel._walk`` against reference copies of their recursive
versions.

``bound_leaf_contents``, ``plug``, ``relabel_binders``,
``_drop_trivial_reposition``, ``all_spines``, the classical-to-intuitionistic
translation and the labelled export used to recurse once per tree level;
they now fold the tree on one explicit stack.  The references below are
those recursive versions.  Both must give equal results on proofgen
derivations in all twelve systems and on the built-ins, including the order
in which fresh labels and tokens are taken.

``reference_resolve_joins`` is the normalizer's former cut-free cleanup, a
separate walk that commuted every elimination off a case-split conclusion
after the last cut; the normalization oracles compare the step that
replaced it with this copy.
"""

from __future__ import annotations

import itertools
import random

import pytest

import proofgen
from test_freshen_oracle import reserved_canon
from posnd import kernel as K
from posnd import normalizer as N
from posnd import translate as T
from posnd.syntax import (
    And,
    Atom,
    Bottom,
    Box,
    Dia,
    Imp,
    Or,
    PFormula,
)

SYSTEMS = [K.System(lg, fl) for lg in K.LOGICS for fl in K.FLAVORS]
P, Q = Atom("p"), Atom("q")


# --- reference copies --------------------------------------------------------


def reference_shadowed(d, idx, kind):
    acc = set()
    for i, labels, k in K._scopes(d):
        if i == idx and k == kind:
            acc |= labels
    return frozenset(acc)


def reference_bound_leaf_contents(d, labels, kind):
    out = []

    def walk(n, active):
        if not active:
            return
        if n.rule == "hyp":
            if kind == "p" and n.label in active:
                out.append(n.conclusion)
            return
        if n.rule == "ehyp":
            if kind == "e" and n.label in active:
                out.append(n.conclusion)
            return
        for i, p in enumerate(n.premises):
            walk(p, active - reference_shadowed(n, i, kind))

    walk(d, frozenset(labels))
    return out


def reference_plug(d, labels, replacement, kind="p"):
    def walk(n, active):
        if not active:
            return n
        if n.rule == "hyp":
            if kind == "p" and n.label in active:
                return replacement
            return n
        if n.rule == "ehyp":
            if kind == "e" and n.label in active:
                return replacement
            return n
        prems = tuple(
            walk(p, active - reference_shadowed(n, i, kind))
            for i, p in enumerate(n.premises)
        )
        if prems == n.premises:
            return n
        return K._rebuilt(n, prems)

    return walk(d, frozenset(labels))


def reference_relabel_binders(d, forbidden):
    used = set(forbidden) | set(K.all_labels(d))
    counter = itertools.count(1)

    def fresh():
        while True:
            cand = f"l{next(counter)}"
            if cand not in used:
                used.add(cand)
                return cand

    def go(n, penv, eenv):
        if n.rule == "hyp":
            new = penv.get(n.label, n.label)
            if new == n.label:
                return n
            return K._mk("hyp", (), label=new, content=n.content)
        if n.rule == "ehyp":
            new = eenv.get(n.label, n.label)
            if new == n.label:
                return n
            return K._mk("ehyp", (), label=new, content=n.content)
        renames = {}
        discharges = []
        over = {}
        for i, labels, k in K._scopes(n):
            m = renames.setdefault((i, k), {})
            for lab in sorted(labels):
                m[lab] = fresh()
            renamed = frozenset(m[lab] for lab in labels)
            if k == "p":
                discharges.append(renamed)
            else:
                over["e_discharges"] = renamed
        if discharges:
            over["discharges"] = tuple(discharges)
        prems = []
        for i, p in enumerate(n.premises):
            pe = dict(penv)
            ee = dict(eenv)
            for lab in reference_shadowed(n, i, "p"):
                pe.pop(lab, None)
            for lab in reference_shadowed(n, i, "e"):
                ee.pop(lab, None)
            pe.update(renames.get((i, "p"), {}))
            ee.update(renames.get((i, "e"), {}))
            prems.append(go(p, pe, ee))
        return K._rebuilt(n, tuple(prems), **over)

    return go(d, {}, {})


def reference_drop_trivial_reposition(d):
    prems = tuple(reference_drop_trivial_reposition(p) for p in d.premises)
    node = K._rebuilt(d, prems)
    if (
        node.rule == "bot-i"
        and node.target is not None
        and isinstance(node.target.formula, Bottom)
        and node.premises[0].conclusion == node.conclusion
    ):
        return node.premises[0]
    return node


def reference_resolve_joins(d, log):
    def resolve(node, path):
        while node.rule in K.ELIM_RULES and node.premises[0].rule in K.JOIN_RULES:
            node = N._commute_node(node, K.all_labels(node))
            log.append(("commutative", path))
            prems = list(node.premises)
            for s in K._RULE_TABLE[node.rule].minors:
                prems[s] = resolve(prems[s], path + (s,))
            node = K._rebuilt(node, tuple(prems))
        return node

    def walk(node, path):
        prems = tuple(walk(p, path + (i,)) for i, p in enumerate(node.premises))
        return resolve(K._rebuilt(node, prems), path)

    return walk(d, ())


def reference_all_spines(d):
    def walk(node, path):
        opts = N._spine_options(node)
        if not opts:
            return [[path]]
        out = []
        for i in opts:
            for tail in walk(node.premises[i], path + (i,)):
                out.append(tail + [path])
        return out

    return tuple(tuple(p) for p in walk(d, ()))


class ReferenceAlloc:
    def __init__(self, labels=(), tokens=()):
        self._labels = set(labels)
        self._tokens = set(tokens)
        self._ln = itertools.count(1)
        self._tn = itertools.count(1)

    def label(self):
        while True:
            cand = f"h{next(self._ln)}"
            if cand not in self._labels:
                self._labels.add(cand)
                return cand

    def token(self):
        while True:
            cand = f"z{next(self._tn)}"
            if cand not in self._tokens:
                self._tokens.add(cand)
                return cand


def reference_all_tokens(d):
    acc = set()

    def visit(p):
        acc.update(p)
        return p

    K.map_positions(d, visit)
    return frozenset(acc)


def reference_ci(d, target, alloc):
    g = T.g_translate
    neg = T.neg
    r = d.rule

    def rec(i):
        return reference_ci(d.premises[i], target, alloc)

    if r == "hyp":
        c = d.content
        return K.hyp(d.label, g(c.formula), c.position)
    if r == "ehyp":
        return d
    if r == "and-i":
        return K.and_i(rec(0), rec(1))
    if r == "and-e1":
        return K.and_e1(rec(0))
    if r == "and-e2":
        return K.and_e2(rec(0))
    if r == "imp-i":
        ante = PFormula(g(d.conclusion.formula.left), d.conclusion.position)
        return K.imp_i(d.discharges[0], rec(0), ante=ante)
    if r == "imp-e":
        return K.imp_e(rec(0), rec(1))
    if r == "box-i":
        return K.box_i(d.token, d.e_discharges, rec(0))
    if r == "box-e":
        e = rec(1) if len(d.premises) == 2 else None
        return K.box_e(rec(0), d.beta, e)
    if r == "bot-i":
        t = d.target
        body = rec(0)
        if isinstance(t.formula, Bottom):
            return K.bot_i(body, Bottom(), t.position)
        body = T._reposition(body, t.position)
        ante = PFormula(neg(t.formula), t.position)
        return K.imp_i(frozenset(), body, ante=ante)
    if r == "bot-c":
        t = d.target
        goal = g(t.formula)
        body = T._reposition(rec(0), t.position)
        ante = PFormula(neg(goal), t.position)
        doubled = K.imp_i(d.discharges[0], body, ante=ante)
        return K.imp_e(T._dne(goal, t.position, target, alloc), doubled)
    if r in ("or-i1", "or-i2"):
        both = d.conclusion.formula
        pos = d.conclusion.position
        g_left, g_right = g(both.left), g(both.right)
        u = alloc.label()
        pair = K.hyp(u, And(neg(g_left), neg(g_right)), pos)
        project = K.and_e1 if r == "or-i1" else K.and_e2
        return K.imp_i(frozenset({u}), K.imp_e(project(pair), rec(0)))
    if r == "or-e":
        both = d.premises[0].conclusion.formula
        beta = d.premises[0].conclusion.position
        goal = g(d.conclusion.formula)
        pos = d.conclusion.position
        w = alloc.label()
        left = T._contrapose(
            rec(1), d.discharges[0], PFormula(g(both.left), beta), w
        )
        right = T._contrapose(
            rec(2), d.discharges[1], PFormula(g(both.right), beta), w
        )
        bottom = T._reposition(K.imp_e(rec(0), K.and_i(left, right)), pos)
        doubled = K.imp_i(frozenset({w}), bottom, ante=PFormula(neg(goal), pos))
        return K.imp_e(T._dne(goal, pos, target, alloc), doubled)
    if r == "dia-i":
        body_formula = g(d.premises[0].conclusion.formula)
        pos = d.conclusion.position
        u = alloc.label()
        e = rec(1) if len(d.premises) == 2 else None
        opened = K.box_e(K.hyp(u, Box(neg(body_formula)), pos), d.beta, e)
        bottom = T._reposition(K.imp_e(opened, rec(0)), pos)
        return K.imp_i(frozenset({u}), bottom)
    if r == "dia-e":
        witness = g(d.premises[0].conclusion.formula.body)
        beta = d.premises[0].conclusion.position
        goal = g(d.conclusion.formula)
        pos = d.conclusion.position
        w = alloc.label()
        minor = T._contrapose(
            rec(1), d.discharges[0], PFormula(witness, beta + (d.token,)), w
        )
        boxed = K.box_i(d.token, d.e_discharges, minor)
        bottom = T._reposition(K.imp_e(rec(0), boxed), pos)
        doubled = K.imp_i(frozenset({w}), bottom, ante=PFormula(neg(goal), pos))
        return K.imp_e(T._dne(goal, pos, target, alloc), doubled)
    raise ValueError(f"unknown rule: {r}")


def reference_classical_to_intuitionistic(d, system):
    target = K.System(system.logic, "intuitionistic")
    alloc = ReferenceAlloc(labels=K.all_labels(d), tokens=reference_all_tokens(d))
    return reference_ci(d, target, alloc)


def reference_to_labelled(d, mode):
    concl = d.conclusion
    if not isinstance(concl, PFormula):
        raise ValueError("existence conclusions have no labelled image")
    gamma = [a.content for a in K.open_assumptions(d)]
    jud = T.judgment_to_labelled(gamma, concl, mode)
    r = d.rule
    prems = d.premises
    if mode == "partial" and r in ("box-e", "dia-i") and len(prems) == 2:
        prems = prems[:1]
    children = tuple(reference_to_labelled(p, mode) for p in prems)
    rule = T._LABELLED_RULE.get(r, r)
    if mode == "total" and r in ("box-e", "dia-i"):
        if r == "box-e":
            alpha = tuple(d.premises[0].conclusion.position)
        else:
            alpha = tuple(d.conclusion.position)
        return T._mediate(rule, children, jud, alpha, tuple(d.beta))
    return T.LabelledStep(rule, children, jud)


# --- inputs ------------------------------------------------------------------


def corpus():
    """Proofgen derivations in all twelve systems, then the built-ins."""
    for system in SYSTEMS:
        rng = random.Random(f"walk-{system.logic}-{system.flavor}")
        for _ in range(15):
            yield proofgen.random_derivation(rng, system, steps=14), system
    for axiom, logic in K.BUILTIN_PAIRS:
        yield K.builtin(axiom, logic)


def eliminated(d):
    """An elimination over ``d``, or ``None`` when its conclusion has none here."""
    c = d.conclusion
    if isinstance(c.formula, And):
        return K.and_e2(d)
    if isinstance(c.formula, Imp):
        return K.imp_e(d, K.hyp("k", c.formula.left, c.position))
    if isinstance(c.formula, Box):
        return K.box_e(d, ("a",))
    if isinstance(c.formula, Dia):
        return K.dia_e(d, "x", frozenset({"k"}), frozenset(), K.hyp("j", Q, c.position))
    return None


def joined(d):
    """An elimination over case splits nested in minor premises, with ``d``
    in every case, so its labels repeat across the cases."""
    pos = d.conclusion.position
    inner = K.or_e(K.hyp("m", Or(P, Q), pos), frozenset({"h0"}), d, frozenset(), d)
    split = K.dia_e(
        K.hyp("n", Dia(P), pos),
        "w",
        frozenset({"h1"}),
        frozenset(),
        K.or_e(
            K.hyp("o", Or(Q, Q), pos), frozenset({"h2"}), inner, frozenset({"h0"}), d
        ),
    )
    return eliminated(split)


# --- tests -------------------------------------------------------------------


def test_scope_walks_match_reference():
    seen = 0
    for d, _system in corpus():
        # every binder's scope, and every label over the whole tree
        scopes = [
            (n.premises[slot], labels, kind)
            for n in d
            for slot, labels, kind in K._scopes(n)
        ]
        scopes += [(d, K.all_labels(d), kind) for kind in "pe"]
        for prem, labels, kind in scopes:
            replacement = K.hyp("r", P, ()) if kind == "p" else K.ehyp("r", ("q",))
            assert K.bound_leaf_contents(prem, labels, kind) == (
                reference_bound_leaf_contents(prem, labels, kind)
            )
            assert K.plug(prem, labels, replacement, kind) == reference_plug(
                prem, labels, replacement, kind
            )
            seen += 1
        # a case split rebinding every label of ``d`` in both cases at once
        labels = K.all_labels(d)
        pos = d.conclusion.position
        split = K.or_e(K.hyp("m", Or(P, Q), pos), labels, d, labels, d)
        for tree in (d, split):
            for forbidden in (frozenset(), frozenset({"l1", "l3", "h0"})):
                assert K.relabel_binders(tree, forbidden) == (
                    reference_relabel_binders(tree, forbidden)
                )
    assert seen > 600


def test_drop_trivial_reposition_matches_reference():
    for d, _system in corpus():
        for fn in (lambda p: p, lambda p: (), lambda p: p[:1]):
            mapped = K.map_positions(d, fn)
            assert K._drop_trivial_reposition(mapped) == (
                reference_drop_trivial_reposition(mapped)
            )


def untokened(d):
    """:func:`reserved_canon` of ``d`` with every reserved token alike."""

    def blur(x):
        if type(x) is tuple:
            if len(x) == 2 and x[0] == "reserved" and type(x[1]) is int:
                return "reserved"
            return tuple(map(blur, x))
        return x

    return blur(tuple(reserved_canon(d)))


def test_cut_free_commutations_match_the_former_cleanup():
    # The labels of ``d`` repeat across the cases of ``joined(d)``, so each
    # commutation's fresh labels must avoid those of its elimination.
    commuted = 0
    for d, system in corpus():
        tree = joined(d)
        system = K.System(system.logic, "intuitionistic")
        if tree is None or N.cuts(tree) or not K.check(tree, system).ok:
            continue
        out, trace, steps = N.normalize_steps(tree, system)
        log = []
        want = reference_resolve_joins(K.freshen(tree), log)
        assert trace == [(0, 0)]
        assert [(kind, at) for _, kind, at, _ in steps] == log
        # The same nodes, conclusions and positions included, up to which
        # reserved token each witness has: a commutation that copies a
        # witness now freshens the tree at once, the cleanup did so once, at
        # its end, and this reference not at all, so the two need not rename
        # each other bijectively.
        assert untokened(out) == untokened(want)
        commuted += len(log)
    assert commuted > 40


def test_normalized_joined_trees_keep_the_position_condition():
    # ``joined(d)`` copies ``d``, so a ``dia-e`` of ``d`` can keep a token
    # that occurs in no position once the copies are freshened; the fresh
    # numbers must start above it, or an enclosing renaming maps another
    # witness onto it.
    normalized = 0
    for d, system in corpus():
        tree = joined(d)
        system = K.System(system.logic, "intuitionistic")
        if tree is None or not K.check(tree, system).ok:
            continue
        out = N.normalize(tree, system)[0]
        assert K.check_position_condition(out) == ()
        assert K.check(out, system).ok
        normalized += 1
    assert normalized > 50


def test_all_spines_match_reference():
    for d, _system in corpus():
        assert N.all_spines(d) == reference_all_spines(d)


def test_classical_translation_matches_reference():
    translated = 0
    for d, system in corpus():
        if system.flavor == "classical":
            assert T.classical_to_intuitionistic(d, system) == (
                reference_classical_to_intuitionistic(d, system)
            )
            translated += 1
    assert translated > 90


@pytest.mark.parametrize("normal", [False, True])
def test_labelled_export_matches_reference(normal):
    for d, system in corpus():
        if normal:
            if system.flavor == "classical":
                d = T.classical_to_intuitionistic(d, system)
                system = K.System(system.logic, "intuitionistic")
            d = N.normalize(d, system)[0]
        mode = "partial" if system.partial else "total"
        # The export renames reserved tokens first, as ``print_proof`` does.
        want = T.LabelledProofSketch(
            reference_to_labelled(K.sanitize_tokens(d), mode), mode
        )
        got = T.derivation_to_labelled(d, system)
        assert got == want
        assert T.print_labelled(got) == T.print_labelled(want)


def test_fresh_names_skip_used_ones():
    names = K._fresh_names("z", {"z1", "z3", "y2"})
    assert [next(names) for _ in range(3)] == ["z2", "z4", "z5"]
