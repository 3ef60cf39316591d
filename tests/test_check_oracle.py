"""``kernel.check`` against a reference copy of its first, recursive version.

The reference keeps the open assumptions of every node as one ``Counter`` of
``(label, content)`` pairs, scans the whole multiset at every discharge,
recomputes label conflicts over every premise and over the merged multiset,
and tests witness freshness with ``init_set``.  Its per-rule clauses (shape,
step constraints, existence premises, discharged contents) are frozen copies
of the kernel's from before ``kernel._RULE_TABLE`` held them, one ``if``
branch per rule.  It pins the assumption bookkeeping, the freshness test,
the report's order and every message.  Both must give equal ``CheckReport``
values on every tree below.
"""

from __future__ import annotations

import random
from collections import Counter

import pytest

import proofgen
from posnd import kernel as K
from posnd.syntax import (
    And,
    Atom,
    Bottom,
    Box,
    Dia,
    EFormula,
    Imp,
    Or,
    PFormula,
    concat,
    init_set,
    neg,
    print_position,
)

P, Q = Atom("p"), Atom("q")
SYSTEMS = [K.System(lg, fl) for lg in K.LOGICS for fl in K.FLAVORS]


# --- frozen per-rule clauses -----------------------------------------------

REF_BETA_LENGTH = {
    # logic -> predicate on len(beta), described for messages
    "k": (lambda n: n == 1, "exactly one token"),
    "d": (lambda n: n == 1, "exactly one token"),
    "t": (lambda n: n <= 1, "at most one token"),
    "k4": (lambda n: n >= 1, "at least one token"),
    "d4": (lambda n: n >= 1, "at least one token"),
    "s4": (lambda n: True, "any number of tokens"),
}


def ref_pf(d: K.Derivation) -> PFormula:
    """The premise's p-formula conclusion, with a harmless stand-in when the
    premise concludes an existence assumption (the checker flags that)."""
    c = d.conclusion
    if isinstance(c, PFormula):
        return c
    return PFormula(Bottom(), c.position)


def ref_expected_discharge(
    n: K.Derivation, idx: int, kind: str, scope_pos: int, shape_ok: bool
) -> PFormula | EFormula | None:
    """The content a discharge at this scope must remove, if determinable."""
    if not shape_ok:
        return None
    if n.rule == "imp-i":
        return n.ante
    if n.rule == "bot-c":
        return PFormula(neg(n.target.formula), n.target.position)
    if n.rule == "or-e":
        major = ref_pf(n.premises[0])
        lf = major.formula.left if scope_pos == 0 else major.formula.right
        return PFormula(lf, major.position)
    if n.rule == "dia-e":
        major = ref_pf(n.premises[0])
        witness = major.position + (n.token,)
        if kind == "p":
            return PFormula(major.formula.body, witness)
        return EFormula(witness)
    if n.rule == "box-i":
        prem = ref_pf(n.premises[0])
        return EFormula(prem.position)
    return None


def ref_check_shape(n: K.Derivation, path, system: K.System, bad) -> bool:
    """Rule-shape clause; returns False when follow-up checks should skip."""
    ok = True
    r = n.rule
    if r == "hyp":
        if not n.label:
            bad(path, r, "assumption leaves need a non-empty label")
            ok = False
    elif r == "ehyp":
        if not n.label:
            bad(path, r, "assumption leaves need a non-empty label")
            ok = False
    elif r == "and-i":
        l, rr = ref_pf(n.premises[0]), ref_pf(n.premises[1])
        if l.position != rr.position:
            bad(path, r, "both premises must sit at the same position")
            ok = False
    elif r in ("and-e1", "and-e2"):
        c = ref_pf(n.premises[0])
        if not isinstance(c.formula, And):
            bad(path, r, "premise must conclude a conjunction")
            ok = False
    elif r in ("or-i1", "or-i2"):
        if n.other is None:
            bad(path, r, "missing the other disjunct")
            ok = False
    elif r == "or-e":
        major = ref_pf(n.premises[0])
        m1, m2 = ref_pf(n.premises[1]), ref_pf(n.premises[2])
        if not isinstance(major.formula, Or):
            bad(path, r, "major premise must conclude a disjunction")
            ok = False
        if m1 != m2:
            bad(path, r, "both case premises must conclude the same p-formula")
            ok = False
    elif r == "imp-i":
        c = ref_pf(n.premises[0])
        if n.ante is None:
            bad(path, r, "missing antecedent")
            ok = False
        elif n.ante.position != c.position:
            bad(
                path,
                r,
                "the discharged antecedent must sit at the premise position",
            )
            ok = False
    elif r == "imp-e":
        major, minor = ref_pf(n.premises[0]), ref_pf(n.premises[1])
        if not isinstance(major.formula, Imp):
            bad(path, r, "major premise must conclude an implication")
            ok = False
        else:
            if minor.formula != major.formula.left:
                bad(path, r, "minor premise must conclude the antecedent")
                ok = False
            if minor.position != major.position:
                bad(path, r, "both premises must sit at the same position")
                ok = False
    elif r == "bot-c":
        c = ref_pf(n.premises[0])
        if not isinstance(c.formula, Bottom):
            bad(path, r, "premise must conclude absurdity")
            ok = False
        if n.target is None:
            bad(path, r, "missing conclusion data")
            ok = False
    elif r == "bot-i":
        c = ref_pf(n.premises[0])
        if not isinstance(c.formula, Bottom):
            bad(path, r, "premise must conclude absurdity")
            ok = False
        if n.target is None:
            bad(path, r, "missing conclusion data")
            ok = False
        else:
            if not isinstance(n.target.formula, (Atom, Bottom)):
                bad(path, r, "conclusion must be atomic")
                ok = False
            elif (
                isinstance(n.target.formula, Bottom)
                and n.target.position == c.position
            ):
                bad(
                    path,
                    r,
                    "repositioning absurdity requires a different position",
                )
                ok = False
    elif r == "box-i":
        c = ref_pf(n.premises[0])
        if not c.position:
            bad(path, r, "premise position must be non-empty")
            ok = False
        elif n.token is None or c.position[-1] != n.token:
            bad(
                path,
                r,
                "witness token must be the last token of the premise position",
            )
            ok = False
    elif r == "box-e":
        c = ref_pf(n.premises[0])
        if not isinstance(c.formula, Box):
            bad(path, r, "major premise must conclude a necessity formula")
            ok = False
        if n.beta is None:
            bad(path, r, "missing recorded step suffix")
            ok = False
    elif r == "dia-i":
        c = ref_pf(n.premises[0])
        if n.beta is None:
            bad(path, r, "missing recorded step suffix")
            ok = False
        else:
            b = tuple(n.beta)
            if c.position[len(c.position) - len(b) :] != b:
                bad(
                    path,
                    r,
                    "premise position must end with the recorded step suffix",
                )
                ok = False
    elif r == "dia-e":
        major = ref_pf(n.premises[0])
        if not isinstance(major.formula, Dia):
            bad(path, r, "major premise must conclude a possibility formula")
            ok = False
        if n.token is None:
            bad(path, r, "missing witness token")
            ok = False
    return ok


def ref_check_beta(n, path, system: K.System, t_strict: bool, bad) -> None:
    if n.beta is None:
        return
    length = len(n.beta)
    rule = n.rule
    pred, desc = REF_BETA_LENGTH[system.logic]
    if system.logic == "t" and t_strict:
        pred, desc = (lambda k: k == 1), "exactly one token"
    if not pred(length):
        bad(
            path,
            rule,
            f"step constraint for logic {system.logic}: {rule} must record "
            f"{desc}, got {length}",
        )


def ref_check_e_discipline(n, path, system: K.System, bad) -> None:
    if system.partial:
        if len(n.premises) < 2:
            bad(
                path,
                n.rule,
                f"step constraint for logic {system.logic}: {n.rule} requires "
                "an existence premise in a partial system",
            )
            return
        eprem = n.premises[1]
        if eprem.rule != "ehyp":
            return  # already flagged as a slot violation
        if n.beta is None:
            return
        if n.rule == "box-e":
            want = concat(ref_pf(n.premises[0]).position, n.beta)
        else:
            want = ref_pf(n.premises[0]).position
        if eprem.conclusion.position != want:
            bad(
                path,
                n.rule,
                f"existence premise must assume position {print_position(want)}, "
                f"got {print_position(eprem.conclusion.position)}",
            )
    else:
        if len(n.premises) > 1:
            bad(
                path,
                n.rule,
                "existence premises are forbidden in total systems",
            )


def reference_check(d, system, *, t_strict_empty_beta=False):
    violations = []

    def bad(path, rule, message):
        violations.append(K.Violation(path, rule, message))

    def conflicts(c):
        by_label = {}
        for (lab, content), cnt in c.items():
            if cnt > 0:
                by_label.setdefault(lab, set()).add(content)
        return frozenset(l for l, cs in by_label.items() if len(cs) > 1)

    def visit(n, path):
        prem_opens = [visit(p, path + (i,)) for i, p in enumerate(n.premises)]
        e_slots = set()
        if n.rule in ("box-e", "dia-i") and len(n.premises) == 2:
            e_slots.add(1)
        for i, p in enumerate(n.premises):
            if i in e_slots:
                if p.rule != "ehyp":
                    bad(
                        path,
                        n.rule,
                        "the existence premise must be an existence assumption leaf",
                    )
            elif p.rule == "ehyp" or isinstance(p.conclusion, EFormula):
                bad(
                    path,
                    n.rule,
                    "an existence assumption may stand only as the existence "
                    "premise of box-e or dia-i",
                )
        shape_ok = ref_check_shape(n, path, system, bad)
        if n.rule in ("box-e", "dia-i"):
            ref_check_beta(n, path, system, t_strict_empty_beta, bad)
            ref_check_e_discipline(n, path, system, bad)
        if n.rule == "ehyp" and not system.partial:
            bad(path, n.rule, "existence assumptions require a partial system")
        if n.e_discharges and not system.partial:
            bad(path, n.rule, "existence discharge requires a partial system")
        if n.rule == "bot-c" and system.flavor != "classical":
            bad(path, n.rule, "bot-c is available only in the classical flavor")

        for scope_pos, (idx, labels, kind) in enumerate(K._scopes(n)):
            expected = ref_expected_discharge(n, idx, kind, scope_pos, shape_ok)
            opens = prem_opens[idx]
            removed = []
            for (lab, content), cnt in list(opens.items()):
                if lab in labels:
                    removed.append((lab, content, cnt))
                    del opens[(lab, content)]
            if expected is not None:
                for lab, content, _cnt in removed:
                    want_kind = EFormula if kind == "e" else PFormula
                    if not isinstance(content, want_kind) or content != expected:
                        bad(
                            path,
                            n.rule,
                            f"discharged assumption {lab!r} has content "
                            f"{K._content_str(content)} but the rule requires "
                            f"{K._content_str(expected)}",
                        )

        merged = Counter()
        before_conflicts = set()
        for opens in prem_opens:
            before_conflicts |= conflicts(opens)
            merged += opens
        if n.rule in ("hyp", "ehyp"):
            merged[(n.label, n.conclusion)] += 1
        for lab in sorted(conflicts(merged) - before_conflicts):
            bad(
                path,
                n.rule,
                f"label {lab!r} is open with two different assumed contents",
            )

        if shape_ok and n.rule == "box-i":
            proper = n.conclusion.position + (n.token,)
            positions = frozenset(
                c.position for (_l, c), cnt in prem_opens[0].items() if cnt > 0
            )
            if proper in init_set(positions):
                bad(
                    path,
                    n.rule,
                    f"witness position {print_position(proper)} must be fresh "
                    "for the remaining open assumptions",
                )
        if shape_ok and n.rule == "dia-e":
            proper = ref_pf(n.premises[0]).position + (n.token,)
            gamma = n.conclusion.position if isinstance(n.conclusion, PFormula) else ()
            positions = frozenset(
                c.position for (_l, c), cnt in prem_opens[1].items() if cnt > 0
            ) | {gamma}
            if proper in init_set(positions):
                bad(
                    path,
                    n.rule,
                    f"witness position {print_position(proper)} must be fresh "
                    "for the conclusion and remaining open assumptions",
                )
        return merged

    opens = visit(d, ())
    if isinstance(d.conclusion, EFormula):
        bad((), d.rule, "a derivation must conclude a p-formula")
    assumptions = tuple(
        sorted(
            (
                K.Assumption(lab, content)
                for (lab, content), cnt in opens.items()
                for _ in range(cnt)
            ),
            key=lambda a: (a.label or "", K._content_str(a.content)),
        )
    )
    ordered = tuple(sorted(violations, key=lambda v: (v.path, v.rule, v.message)))
    return K.CheckReport(not ordered, ordered, assumptions)


def assert_same(d, system, strict=False):
    want = reference_check(d, system, t_strict_empty_beta=strict)
    got = K.check(d, K.System(system.logic, system.flavor, t_strict_empty_beta=strict))
    assert got == want
    return got


# --- mutations -------------------------------------------------------------

_LABELS = ("h0", "h1", "h2", "h3")


def _mutate(rng: random.Random, d: K.Derivation) -> K.Derivation:
    """Rename leaves and rebind discharges at random, so that labels collide
    across premises, discharges bind the wrong contents and witnesses stop
    being fresh."""

    def go(n: K.Derivation) -> K.Derivation:
        prems = tuple(go(p) for p in n.premises)
        if n.rule == "hyp" and rng.random() < 0.3:
            return K.hyp(rng.choice(_LABELS), n.content.formula, n.content.position)
        if n.rule == "ehyp" and rng.random() < 0.3:
            return K.ehyp(rng.choice(_LABELS), n.content.position)
        over = {}
        if n.discharges and rng.random() < 0.3:
            over["discharges"] = tuple(
                frozenset(rng.sample(_LABELS, rng.randrange(3)))
                for _ in n.discharges
            )
        if n.e_discharges and rng.random() < 0.3:
            over["e_discharges"] = frozenset(rng.sample(_LABELS, rng.randrange(3)))
        if prems == n.premises and not over:
            return n
        return K._rebuilt(n, prems, **over)

    return go(d)


def _extend(rng: random.Random, d: K.Derivation) -> K.Derivation:
    """Put ``d`` under a parent that merges it with a fresh leaf whose label
    may already be open in ``d`` with another content."""
    pos = d.conclusion.position
    leaf = K.hyp(rng.choice(_LABELS), proofgen.random_formula(rng), pos)
    return K.and_e1(K.and_i(d, leaf))


# --- tests -----------------------------------------------------------------


@pytest.mark.parametrize("system", SYSTEMS, ids=lambda s: f"{s.logic}-{s.flavor}")
def test_random_derivations_agree(system):
    rng = random.Random(f"oracle-{system.logic}-{system.flavor}")
    for _ in range(25):
        d = proofgen.random_derivation(rng, system, steps=14)
        assert assert_same(d, system).ok
        assert_same(d, system, strict=True)
        for other in rng.sample(SYSTEMS, 3):
            assert_same(d, other)
        for _ in range(3):
            mutant = _mutate(rng, d)
            assert_same(mutant, system)
            assert_same(_extend(rng, mutant), system)
            assert_same(mutant, rng.choice(SYSTEMS))


def test_builtins_agree_in_every_system():
    for axiom, logic in K.BUILTIN_PAIRS:
        d, _ = K.builtin(axiom, logic)
        for system in SYSTEMS:
            assert_same(d, system)
            assert_same(d, system, strict=True)


@pytest.mark.parametrize("strict", [False, True])
@pytest.mark.parametrize("system", SYSTEMS, ids=lambda s: f"{s.logic}-{s.flavor}")
def test_step_kind_checks_steps_as_the_length_rule_did(system, strict):
    """``System.step`` judges a recorded step of every length up to 3 as the
    per-logic length rule did, which read strict ``t`` as ``k``."""
    logic = system.logic
    pred, desc = REF_BETA_LENGTH["k" if strict and logic == "t" else logic]
    system = K.System(logic, system.flavor, strict)
    for n in range(4):
        beta = tuple(f"s{i}" for i in range(n))
        e = K.ehyp("e", beta) if system.partial else None
        for d in (K.box_e(K.hyp("u", Box(P), ()), beta, e),
                  K.dia_i(beta, K.hyp("u", P, beta), e)):
            want = [] if pred(n) else [
                ((), d.rule, f"step constraint for logic {logic}: {d.rule} must "
                 f"record {desc}, got {n}")
            ]
            got = [(v.path, v.rule, v.message) for v in K.check(d, system).violations]
            assert got == want, (d.rule, n)


def test_label_reused_with_another_content_across_premises():
    d = K.and_i(
        K.and_i(K.hyp("u", P, ()), K.hyp("v", P, ())),
        K.and_i(K.hyp("u", Q, ()), K.hyp("v", P, ())),
    )
    report = assert_same(d, K.System("s4"))
    assert [(v.path, v.message) for v in report.violations] == [
        ((), "label 'u' is open with two different assumed contents")
    ]
    assert len(report.open_assumptions) == 4


def test_conflict_inside_one_premise_is_not_reported_again():
    clash = K.and_i(K.hyp("u", P, ()), K.hyp("u", Q, ()))
    d = K.and_i(K.and_e1(clash), K.and_i(K.hyp("u", Box(P), ()), K.hyp("w", P, ())))
    report = assert_same(d, K.System("s4"))
    assert [v.path for v in report.violations] == [(0, 0)]
    # a conflict that only the largest premise carries stays quiet too
    big = K.and_i(K.and_i(clash, K.hyp("a", P, ())), K.hyp("b", P, ()))
    d = K.and_i(big, K.hyp("c", P, ()))
    report = assert_same(d, K.System("s4"))
    assert [v.path for v in report.violations] == [(0, 0, 0)]


def test_wrong_discharge_contents():
    d = K.imp_i(
        frozenset({"u"}),
        K.and_i(K.hyp("u", Q, ()), K.hyp("u", Box(Q), ())),
        ante=PFormula(P, ()),
    )
    report = assert_same(d, K.System("s4"))
    assert sum("discharged assumption" in v.message for v in report.violations) == 2
    # the same label twice with one content is one finding, not two
    twice = K.and_i(K.hyp("u", Q, ()), K.hyp("u", Q, ()))
    d = K.imp_i(frozenset({"u"}), K.and_e1(twice), ante=PFormula(P, ()))
    report = assert_same(d, K.System("s4"))
    assert sum("discharged assumption" in v.message for v in report.violations) == 1


def test_non_fresh_witnesses():
    body = K.box_e(K.hyp("u", Box(P), ()), ("x",))
    inside = K.and_e1(K.and_i(body, K.hyp("w", Q, ("x", "y"))))
    report = assert_same(K.box_i("x", frozenset(), inside), K.System("s4"))
    assert any("must be fresh" in v.message for v in report.violations)
    # a longer open position sharing only a prefix with the witness is fine
    ok = K.and_e1(K.and_i(body, K.hyp("w", Q, ("x",))))
    prefix_only = K.and_e1(K.and_i(K.box_i("x", frozenset(), ok), K.hyp("z", Box(Q), ())))
    assert_same(prefix_only, K.System("s4"))
    major = K.hyp("m", Dia(P), ("a",))
    minor = K.and_e1(K.and_i(K.hyp("b", P, ("a", "x")), K.hyp("c", Q, ("a", "x", "z"))))
    report = assert_same(
        K.dia_e(major, "x", frozenset({"b"}), frozenset(), minor), K.System("s4")
    )
    assert any("must be fresh" in v.message for v in report.violations)


def test_ehyp_in_a_total_logic():
    for axiom in ("k", "four", "dia-dual"):
        d, _ = K.builtin(axiom, "k4")
        for logic in ("d", "t", "d4", "s4"):
            report = assert_same(d, K.System(logic))
            assert any("partial system" in v.message for v in report.violations)


def test_dia_e_sharing_a_label_between_p_and_e_discharges():
    pos = ("a",)
    inner = K.box_e(K.hyp("h", Box(Bottom()), pos), ("x",), K.ehyp("s", pos + ("x",)))
    minor = K.bot_i(
        K.and_e1(K.and_i(inner, K.hyp("s", Bottom(), pos + ("x",)))), P, pos
    )
    major = K.hyp("m", Dia(Bottom()), pos)
    d = K.dia_e(major, "x", frozenset({"s"}), frozenset({"s"}), minor)
    for logic in ("k", "k4", "s4"):
        assert_same(d, K.System(logic))


def test_imp_chain_with_a_large_open_context():
    leaves = [K.hyp(f"u{i}", P, ()) for i in range(60)]
    d = leaves[0]
    for leaf in leaves[1:]:
        d = K.and_e1(K.and_i(d, leaf))
    d = K.imp_i(frozenset({"u0", "u7"}), K.and_e1(K.and_i(d, K.hyp("u7", Imp(P, Q), ()))))
    report = assert_same(d, K.System("s4"))
    assert len(report.open_assumptions) == 58


# --- the order of open assumptions -----------------------------------------


def _leaf(label, content):
    """A ``hyp`` or ``ehyp`` leaf under any label, ``None`` and ``""``
    included, which only ``_node`` builds."""
    rule = "ehyp" if isinstance(content, EFormula) else "hyp"
    fields = dict(zip(K._FIELDS, K._DEFAULTS), label=label, content=content)
    return K._node(rule, (), None, *(fields[f] for f in K._FIELDS))


def _merge(leaves):
    d = leaves[0]
    for leaf in leaves[1:]:
        d = K.and_e1(K.and_i(d, leaf))
    return d


def test_contents_of_one_label_are_ordered_by_their_text():
    here = ("a",)
    contents = [
        PFormula(Q, here),
        PFormula(P, here),
        PFormula(Box(P), here),
        PFormula(P, ("a", "b")),
        PFormula(Or(Q, P), here),
        PFormula(Q, here),
    ]
    leaves = [_leaf("u", c) for c in contents] + [_leaf("t", PFormula(Imp(Q, P), here))]
    report = assert_same(_merge(leaves), K.System("s4"))
    assert [(a.label, K._content_str(a.content)) for a in report.open_assumptions] == [
        ("t", "(imp q p)^(a)"),
        ("u", "(box p)^(a)"),
        ("u", "(or q p)^(a)"),
        ("u", "p^(a b)"),
        ("u", "p^(a)"),
        ("u", "q^(a)"),
        ("u", "q^(a)"),
    ]


def test_none_and_empty_labels_share_one_place_in_the_order():
    here = ("a",)
    leaves = [
        _leaf("b", PFormula(P, here)),
        _leaf(None, PFormula(Q, here)),
        _leaf("", PFormula(P, here)),
        _leaf(None, EFormula(here)),
        _leaf("", PFormula(Box(Q), here)),
        _leaf(None, PFormula(Q, here)),
    ]
    for system in SYSTEMS:
        report = assert_same(_merge(leaves), system)
        assert [(a.label, K._content_str(a.content)) for a in report.open_assumptions] == [
            ("", "(box q)^(a)"),
            (None, "E(a)"),
            ("", "p^(a)"),
            (None, "q^(a)"),
            (None, "q^(a)"),
            ("b", "p^(a)"),
        ]
