"""``translate.classical_to_intuitionistic`` against a frozen copy of its
version that rebuilt each rule it translates premise for premise (``ehyp``,
``and-i``, ``and-e1``, ``and-e2``, ``imp-e``, ``box-i``, ``box-e``) through
that rule's own constructor.  Both must give the same proof for every
classical derivation below: the builtins and ``proofgen``'s, in every logic.
"""

import random

import pytest

import proofgen
from posnd import kernel as K
from posnd import translate as T
from posnd.syntax import And, Bottom, Box, PFormula, neg

LOGICS = ("k", "d", "t", "k4", "d4", "s4")


def reference_classical_to_intuitionistic(d, system):
    target = K.System(system.logic, "intuitionistic")
    alloc = T._Alloc(labels=K.all_labels(d), tokens=K._tokens(d))
    return reference_ci(d, target, alloc)


def reference_ci(d, target, alloc):
    """The translation of ``d``, built bottom-up.  Labels and tokens are
    taken in the order of a recursive translation: a case split translates
    its minors before its major, and some rules take a label (``u``) before
    their premises, others (through ``_dne``) after them."""

    def enter(n, _env):
        prems = [(p, None) for p in n.premises]
        if n.rule in K.JOIN_RULES:
            prems = prems[1:] + prems[:1]
        return prems, alloc.label() if n.rule in T._LABEL_FIRST else None

    def leave(d, prems, u):
        r = d.rule
        if r in K.JOIN_RULES:
            prems = prems[-1:] + prems[:-1]
        if r == "hyp":
            c = d.content
            return K.hyp(d.label, T.g_translate(c.formula), c.position)
        if r == "ehyp":
            return d
        if r == "and-i":
            return K.and_i(prems[0], prems[1])
        if r == "and-e1":
            return K.and_e1(prems[0])
        if r == "and-e2":
            return K.and_e2(prems[0])
        if r == "imp-i":
            ante = PFormula(
                T.g_translate(d.conclusion.formula.left), d.conclusion.position
            )
            return K.imp_i(d.discharges[0], prems[0], ante=ante)
        if r == "imp-e":
            return K.imp_e(prems[0], prems[1])
        if r == "box-i":
            return K.box_i(d.token, d.e_discharges, prems[0])
        if r == "box-e":
            e = prems[1] if len(d.premises) == 2 else None
            return K.box_e(prems[0], d.beta, e)
        if r == "bot-i":
            t = d.target
            body = prems[0]
            if isinstance(t.formula, Bottom):
                return K.bot_i(body, Bottom(), t.position)
            # Atomic targets translate to double negations, which the
            # absurdity rule cannot conclude directly: reposition, then
            # introduce the (vacuous) outer negation over the once-negated
            # atom.
            body = T._reposition(body, t.position)
            ante = PFormula(neg(t.formula), t.position)
            return K.imp_i(frozenset(), body, ante=ante)
        if r == "bot-c":
            t = d.target
            goal = T.g_translate(t.formula)
            body = T._reposition(prems[0], t.position)
            ante = PFormula(neg(goal), t.position)
            doubled = K.imp_i(d.discharges[0], body, ante=ante)
            return K.imp_e(T._dne(goal, t.position, target, alloc), doubled)
        if r in ("or-i1", "or-i2"):
            both = d.conclusion.formula
            pos = d.conclusion.position
            g_left, g_right = T.g_translate(both.left), T.g_translate(both.right)
            pair = K.hyp(u, And(neg(g_left), neg(g_right)), pos)
            project = K.and_e1 if r == "or-i1" else K.and_e2
            return K.imp_i(frozenset({u}), K.imp_e(project(pair), prems[0]))
        if r == "or-e":
            both = d.premises[0].conclusion.formula
            beta = d.premises[0].conclusion.position
            goal = T.g_translate(d.conclusion.formula)
            pos = d.conclusion.position
            left = T._contrapose(
                prems[1],
                d.discharges[0],
                PFormula(T.g_translate(both.left), beta),
                u,
            )
            right = T._contrapose(
                prems[2],
                d.discharges[1],
                PFormula(T.g_translate(both.right), beta),
                u,
            )
            bottom = T._reposition(K.imp_e(prems[0], K.and_i(left, right)), pos)
            doubled = K.imp_i(
                frozenset({u}), bottom, ante=PFormula(neg(goal), pos)
            )
            return K.imp_e(T._dne(goal, pos, target, alloc), doubled)
        if r == "dia-i":
            body_formula = T.g_translate(d.premises[0].conclusion.formula)
            pos = d.conclusion.position
            e = prems[1] if len(d.premises) == 2 else None
            opened = K.box_e(K.hyp(u, Box(neg(body_formula)), pos), d.beta, e)
            bottom = T._reposition(K.imp_e(opened, prems[0]), pos)
            return K.imp_i(frozenset({u}), bottom)
        if r == "dia-e":
            witness = T.g_translate(d.premises[0].conclusion.formula.body)
            beta = d.premises[0].conclusion.position
            goal = T.g_translate(d.conclusion.formula)
            pos = d.conclusion.position
            minor = T._contrapose(
                prems[1],
                d.discharges[0],
                PFormula(witness, beta + (d.token,)),
                u,
            )
            boxed = K.box_i(d.token, d.e_discharges, minor)
            bottom = T._reposition(K.imp_e(prems[0], boxed), pos)
            doubled = K.imp_i(
                frozenset({u}), bottom, ante=PFormula(neg(goal), pos)
            )
            return K.imp_e(T._dne(goal, pos, target, alloc), doubled)
        raise ValueError(f"unknown rule: {r}")  # pragma: no cover

    return K._walk(d, enter, leave)


@pytest.mark.parametrize("logic", LOGICS)
def test_translation_prints_as_the_frozen_copy(logic):
    system = K.System(logic, "classical")
    target = K.System(logic, "intuitionistic")
    rng = random.Random(f"ci-{logic}")
    builtins = [K.builtin(a, lg)[0] for a, lg in K.BUILTIN_PAIRS if lg == logic]
    for d in builtins + [proofgen.random_derivation(rng, system, 14) for _ in range(40)]:
        want = reference_classical_to_intuitionistic(d, system)
        got = T.classical_to_intuitionistic(d, system)
        assert K.print_proof(got, target) == K.print_proof(want, target)
        assert got == want
