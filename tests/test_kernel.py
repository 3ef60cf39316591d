"""Tests for derivation checking, transforms, builtins, and proof files."""

import copy
import dataclasses
import pickle
import random
import sys
import tracemalloc

import pytest

import proofgen
from posnd import kernel as K
from posnd import normalizer as N
from posnd import translate as T
from list_reader import parse_one
from posnd._sexpr import ParseError
from posnd.syntax import (
    Atom,
    Bottom,
    And,
    Or,
    Imp,
    Box,
    Dia,
    EFormula,
    PFormula,
    neg,
    parse_formula,
    parse_position,
    prefix_replace,
)

P = Atom("p")
Q = Atom("q")
S4 = K.System("s4", "classical")
SYSTEMS = [K.System(lg, fl) for lg in K.LOGICS for fl in K.FLAVORS]


def detour_chain(depth):
    """``depth`` nested ``imp-e``/``imp-i`` detours over an open leaf ``u``."""
    d = K.hyp("u", P, ())
    for i in range(depth):
        lab = f"v{i}"
        d = K.imp_e(K.imp_i(frozenset({lab}), K.hyp(lab, P, ())), d)
    return d


def box_chain(depth):
    """``depth`` nested ``box-i``/``box-e`` pairs over an open leaf ``u``."""
    d = K.hyp("u", Box(P), ())
    for _ in range(depth):
        d = K.box_i("x", frozenset(), K.box_e(d, ("x",)))
    return d


def or_chain(depth):
    """``depth`` case splits on ``u: p or p``, each in the second case of the
    next (every split rebinds ``a`` and ``b``), under an ``imp-i`` binding
    ``u``."""
    d = K.hyp("b", P, ())
    for _ in range(depth):
        d = K.or_e(
            K.hyp("u", Or(P, P), ()), frozenset({"a"}), K.hyp("a", P, ()),
            frozenset({"b"}), d,
        )
    return K.imp_i(frozenset({"u"}), d)


def imp_and_chain(depth):
    """``depth`` nested ``imp-i``, each over an ``and-e1``/``and-i`` detour
    whose left premise is the leaf it binds and whose right premise is the
    chain below, down to an open leaf ``u``."""
    d = K.hyp("u", P, ())
    for i in range(depth):
        lab = f"v{i}"
        d = K.imp_i(frozenset({lab}), K.and_e1(K.and_i(K.hyp(lab, P, ()), d)))
    return d


def rule_samples():
    """One well-formed node per rule, built by its public constructor."""
    u = K.hyp("u", P, ())
    return {
        "hyp": u,
        "ehyp": K.ehyp("e", ("x",)),
        "and-i": K.and_i(u, K.hyp("v", Q, ())),
        "and-e1": K.and_e1(K.hyp("w", And(P, Q), ())),
        "and-e2": K.and_e2(K.hyp("w", And(P, Q), ())),
        "or-i1": K.or_i1(Q, u),
        "or-i2": K.or_i2(Q, u),
        "or-e": K.or_e(
            K.hyp("w", Or(P, P), ()), frozenset({"a"}), K.hyp("a", P, ()),
            frozenset({"b"}), K.hyp("b", P, ()),
        ),
        "imp-i": K.imp_i(frozenset({"u"}), u),
        "imp-e": K.imp_e(K.hyp("f", Imp(P, Q), ()), u),
        "bot-c": K.bot_c(
            frozenset({"n"}),
            K.imp_e(K.hyp("n", Imp(P, Bottom()), ()), u),
            P,
            (),
        ),
        "bot-i": K.bot_i(K.hyp("z", Bottom(), ()), P, ()),
        "box-i": K.box_i("x", frozenset(), K.hyp("u", P, ("x",))),
        "box-e": K.box_e(K.hyp("b", Box(P), ()), ("x",)),
        "dia-i": K.dia_i(("x",), K.hyp("u", P, ("x",))),
        "dia-e": K.dia_e(
            K.hyp("m", Dia(P), ()), "x", frozenset({"a"}), frozenset(),
            K.bot_i(K.hyp("z", Bottom(), ()), Q, ()),
        ),
    }


def test_rule_sets():
    assert K.RULES == (
        "hyp", "ehyp", "and-i", "and-e1", "and-e2", "or-i1", "or-i2", "or-e",
        "imp-i", "imp-e", "bot-c", "bot-i", "box-i", "box-e", "dia-i", "dia-e",
    )
    assert K.INTRO_RULES == {"and-i", "or-i1", "or-i2", "imp-i", "box-i", "dia-i"}
    assert K.ELIM_RULES == {"and-e1", "and-e2", "or-e", "imp-e", "box-e", "dia-e"}
    assert K.JOIN_RULES == {"or-e", "dia-e"}
    counts = {r: (s.counts, s.e_slot) for r, s in K._RULE_TABLE.items()}
    assert counts == {
        "hyp": ((0,), None), "ehyp": ((0,), None), "and-i": ((2,), None),
        "and-e1": ((1,), None), "and-e2": ((1,), None), "or-i1": ((1,), None),
        "or-i2": ((1,), None), "or-e": ((3,), None), "imp-i": ((1,), None),
        "imp-e": ((2,), None), "bot-c": ((1,), None), "bot-i": ((1,), None),
        "box-i": ((1,), None), "box-e": ((1, 2), 1), "dia-i": ((1, 2), 1),
        "dia-e": ((2,), None),
    }
    # Every public constructor builds a node that the keyword constructor,
    # which validates, makes again unchanged.
    samples = rule_samples()
    assert [n.rule for n in samples.values()] == list(K.RULES)
    built = list(samples.values()) + [
        K.box_e(K.hyp("b", Box(P), ()), ("x",), K.ehyp("e", ("x",))),
        K.dia_i(("x",), K.hyp("u", P, ("x",)), K.ehyp("e", ("x",))),
        K.imp_i(frozenset(), K.hyp("u", P, ()), ante=PFormula(Q, ())),
    ]
    for n in built:
        kw = keyword_built(n)
        assert K._node_data(kw) == K._node_data(n) and kw.premises is n.premises


# --- node construction -----------------------------------------------------


def keyword_built(n):
    """``n`` made again by the public keyword constructor, over the same
    premises."""
    return K.Derivation(
        **{f.name: getattr(n, f.name) for f in dataclasses.fields(K.Derivation)}
    )


def built_trees():
    """Trees whose nodes come from every internal builder: the constructors
    and ``_mk``, the proof-file reader, ``_rebuilt`` (freshening, binder
    renaming) and the normalizer's path rebuild (``_with_premises``)."""
    for system in SYSTEMS:
        rng = random.Random(f"nodes-{system.logic}-{system.flavor}")
        for _ in range(6):
            d = proofgen.random_derivation(rng, system, steps=14)
            yield d
            yield K.parse_proof(K.print_proof(d, system))[0]
            yield K.freshen(d)
            yield K.relabel_binders(d, frozenset({"h1"}))
    for axiom, logic in K.BUILTIN_PAIRS:
        d, system = K.builtin(axiom, logic)
        yield K.parse_proof(K.print_proof(d, system))[0]
    for d in (imp_and_chain(30), box_chain(20), or_chain(20)):
        yield N.normalize(d, K.System("s4", "intuitionistic"))[0]
        yield N.normalize_steps(d, K.System("s4", "intuitionistic"))[0]
        yield N.reduce_once(d, K.System("s4", "intuitionistic")) or d


def test_nodes_equal_their_keyword_built_copies():
    nodes = 0
    for d in built_trees():
        for n in d:
            kw = keyword_built(n)
            assert type(n) is K.Derivation
            assert K._node_data(n) == K._node_data(kw)
            assert n.premises is kw.premises
            assert n == kw and kw == n and hash(n) == hash(kw)
            assert repr(n) == repr(kw)
            nodes += 1
    assert nodes > 1500


def test_node_takes_the_fields_in_declaration_order():
    names = [f.name for f in dataclasses.fields(K.Derivation)]
    assert names[:3] == ["rule", "premises", "conclusion"]
    assert K._FIELDS == tuple(names[3:])
    leaf = K.hyp("u", P, ("a",))
    values = (
        "box-e", (leaf,), PFormula(P, ("a", "b")), "l", leaf.conclusion, None, Q,
        None, (frozenset({"v"}),), frozenset({"e"}), ("b",), "x",
    )
    n = K._node(*values)
    assert type(n) is K.Derivation
    assert tuple(getattr(n, f) for f in names) == values
    # The keyword constructor takes the same order; it refuses data in the
    # fields that box-e does not use.
    with pytest.raises(ValueError, match="label is not a field of the rule"):
        K.Derivation(*values)
    bare = values[:3] + K._DEFAULTS[:-2] + values[-2:-1] + (None,)
    assert K._node_data(K._node(*bare)) == K._node_data(K.Derivation(*bare))


def test_nodes_are_frozen_slotted_and_copy():
    d, system = K.builtin("four", "s4")
    read = K.parse_proof(K.print_proof(d, system))[0]
    for tree in (d, read, K.freshen(read)):
        for n in tree:
            assert not hasattr(n, "__dict__")
        for name in ("rule", "premises", "token", "extra"):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(tree, name, None)
        for name in ("rule", "extra"):
            with pytest.raises(dataclasses.FrozenInstanceError):
                delattr(tree, name)
        for other in (
            pickle.loads(pickle.dumps(tree)), copy.copy(tree), copy.deepcopy(tree)
        ):
            assert type(other) is K.Derivation
            assert other == tree and hash(other) == hash(tree)
            assert [K._node_data(n) for n in other] == [K._node_data(n) for n in tree]


# --- builtins --------------------------------------------------------------


def test_builtin_pairs_all_check_clean():
    assert len(K.BUILTIN_PAIRS) == 20
    for axiom, logic in K.BUILTIN_PAIRS:
        d, system = K.builtin(axiom, logic)
        report = K.check(d, system)
        assert report.ok, (axiom, logic, report.violations)
        assert report.open_assumptions == ()
        assert K.check_position_condition(d) == ()


def test_builtin_unsupported_pairs_raise():
    for axiom, logic in [("t", "k"), ("t", "d"), ("d", "k"), ("four", "t")]:
        with pytest.raises(K.UnsupportedPair):
            K.builtin(axiom, logic)


def test_builtin_d_shape():
    d, system = K.builtin("d", "d")
    assert d.conclusion == PFormula(Imp(Box(P), Dia(P)), ())
    assert d.rule == "imp-i"
    di = d.premises[0]
    assert di.rule == "dia-i" and di.beta == ("x",)
    be = di.premises[0]
    assert be.rule == "box-e" and be.beta == ("x",)


def test_builtin_four_partial_shape():
    d, _ = K.builtin("four", "k4")
    assert d.conclusion == PFormula(Imp(Box(P), Box(Box(P))), ())
    boxes = [n for n in d if n.rule == "box-i"]
    assert len(boxes) == 2
    be = [n for n in d if n.rule == "box-e"]
    assert len(be) == 1 and be[0].beta == ("x", "y")
    eprem = be[0].premises[1]
    assert eprem.rule == "ehyp"
    assert eprem.conclusion == EFormula(("x", "y"))
    assert frozenset().union(*(b.e_discharges for b in boxes)) == {"e1"}


def test_builtin_k_conclusion_all_logics():
    want = PFormula(Imp(Box(Imp(P, Q)), Imp(Box(P), Box(Q))), ())
    for logic in K.LOGICS:
        d, _ = K.builtin("k", logic)
        assert d.conclusion == want


def test_builtin_custom_formulas():
    a = And(P, Q)
    d, system = K.builtin("t", "s4", a=a)
    assert d.conclusion == PFormula(Imp(Box(a), a), ())
    assert K.check(d, system).ok


# --- cross-system checking -------------------------------------------------


def test_t_derivation_rejected_in_k():
    d, _ = K.builtin("t", "t")
    report = K.check(d, K.System("k", "classical"))
    assert not report.ok
    assert any(
        v.rule == "box-e" and "step constraint" in v.message
        for v in report.violations
    )


def test_four_derivation_rejected_in_t():
    d, _ = K.builtin("four", "s4")
    report = K.check(d, K.System("t", "classical"))
    assert not report.ok
    assert any(
        v.rule == "box-e" and "step constraint" in v.message
        for v in report.violations
    )


def test_t_strict_empty_beta_flag():
    d, system = K.builtin("t", "t")
    assert K.check(d, system).ok
    strict = K.check(d, K.System(system.logic, system.flavor, t_strict_empty_beta=True))
    assert not strict.ok
    assert any("step constraint" in v.message for v in strict.violations)


def test_botc_rejected_in_intuitionistic():
    d, _ = K.builtin("dia-dual", "s4")
    report = K.check(d, K.System("s4", "intuitionistic"))
    assert not report.ok
    assert any(v.rule == "bot-c" for v in report.violations)


def test_ehyp_rejected_in_total_system():
    d, _ = K.builtin("k", "k")
    report = K.check(d, K.System("s4", "classical"))
    assert not report.ok
    assert any(v.rule == "ehyp" for v in report.violations)
    assert any("forbidden in total systems" in v.message for v in report.violations)


def test_partial_system_requires_e_premise():
    d, _ = K.builtin("k", "s4")  # total-variant derivation, no E-premises
    report = K.check(d, K.System("k", "classical"))
    assert not report.ok
    assert any(
        v.rule == "box-e" and "existence premise" in v.message
        for v in report.violations
    )


def test_e_premise_position_must_match():
    major = K.hyp("u", Box(P), ())
    wrong = K.box_e(major, ("x",), K.ehyp("e", ("y",)))
    report = K.check(wrong, K.System("k", "classical"))
    assert not report.ok
    assert any("must assume position" in v.message for v in report.violations)


def test_ehyp_only_in_existence_slots():
    bad = K.and_i(K.ehyp("e", ("x",)), K.hyp("u", P, ("x",)))
    report = K.check(bad, K.System("k", "classical"))
    assert not report.ok
    assert any("existence premise" in v.message for v in report.violations)


# --- open assumptions ------------------------------------------------------


def test_open_assumptions_single_leaf():
    d = K.hyp("u", Box(P), ())
    opens = K.open_assumptions(d)
    assert opens == (K.Assumption("u", PFormula(Box(P), ())),)


def test_open_assumptions_full_discharge():
    d = K.imp_i(frozenset({"u"}), K.hyp("u", P, ()))
    assert K.open_assumptions(d) == ()


def test_open_assumptions_builtin_k_partial_empty():
    d, system = K.builtin("k", "k")
    assert K.check(d, system).open_assumptions == ()


def test_open_assumptions_multiset_counts_duplicates():
    leaf = K.hyp("u", P, ())
    d = K.and_i(leaf, leaf)
    opens = K.open_assumptions(d)
    assert len(opens) == 2
    assert all(a == K.Assumption("u", PFormula(P, ())) for a in opens)


def test_label_conflict_detected():
    d = K.and_i(K.hyp("u", P, ()), K.hyp("u", Q, ()))
    report = K.check(d, S4)
    assert not report.ok
    assert any("two different assumed contents" in v.message for v in report.violations)


def test_discharge_content_mismatch():
    # imp-i over [u: q] but claiming antecedent p
    d = K.imp_i(frozenset({"u"}), K.hyp("u", Q, ()), ante=PFormula(P, ()))
    report = K.check(d, S4)
    assert not report.ok
    assert any("content" in v.message for v in report.violations)


def test_nearest_binder_wins():
    # inner imp-i discharges u; outer imp-i discharging u is vacuous
    inner = K.imp_i(frozenset({"u"}), K.hyp("u", P, ()))
    outer = K.imp_i(frozenset({"u"}), inner, ante=PFormula(Q, ()))
    report = K.check(outer, S4)
    assert report.ok
    assert outer.conclusion == PFormula(Imp(Q, Imp(P, P)), ())


# --- rule shapes and freshness ---------------------------------------------


def test_box_i_freshness_violation():
    clash = K.and_i(
        K.box_e(K.hyp("u", Box(P), ()), ("x",)), K.hyp("w", Q, ("x",))
    )
    bad = K.box_i("x", frozenset(), K.and_e1(clash))
    report = K.check(bad, S4)
    assert not report.ok
    assert any(
        v.rule == "box-i" and "fresh" in v.message for v in report.violations
    )


def test_dia_e_freshness_covers_conclusion():
    # minor concluding at the witness position itself is rejected
    major = K.hyp("u", Dia(P), ())
    minor = K.hyp("a", P, ("x",))
    bad = K.dia_e(major, "x", frozenset({"a"}), frozenset(), minor)
    report = K.check(bad, S4)
    assert not report.ok
    assert any(
        v.rule == "dia-e" and "fresh" in v.message for v in report.violations
    )


def test_bot_i_atomic_and_reposition_clause():
    base = K.hyp("u", Bottom(), ())
    ok = K.bot_i(base, Bottom(), ("x",))
    assert K.check(ok, S4).ok
    same = K.bot_i(base, Bottom(), ())
    report = K.check(same, S4)
    assert not report.ok
    nonatomic = K.bot_i(base, And(P, Q), ("x",))
    assert not K.check(nonatomic, S4).ok
    atom_same_pos = K.bot_i(base, P, ())
    assert K.check(atom_same_pos, S4).ok


def test_bot_c_any_premise_position():
    prem = K.imp_e(K.hyp("n", neg(P), ("x", "y")), K.hyp("u", P, ("x", "y")))
    d = K.bot_c(frozenset(), prem, Q, ())
    report = K.check(d, S4)
    assert report.ok
    assert d.conclusion == PFormula(Q, ())


def test_check_never_raises_on_garbage():
    bad = K.and_e1(K.hyp("u", P, ()))
    report = K.check(bad, S4)
    assert not report.ok
    assert any("conjunction" in v.message for v in report.violations)


def test_check_deep_chain_without_recursion_error():
    depth = 5000
    assert depth > sys.getrecursionlimit()
    d = K.hyp("u", P, ())
    for i in range(depth):
        lab = f"v{i}"
        d = K.imp_e(K.imp_i(frozenset({lab}), K.hyp(lab, P, ())), d)
    report = K.check(d, S4)
    assert report.ok
    assert report.open_assumptions == (K.Assumption("u", PFormula(P, ())),)


def test_iteration_is_pre_order():
    def preorder(n):
        out = [n]
        for p in n.premises:
            out.extend(preorder(p))
        return out

    for system in SYSTEMS:
        rng = random.Random(f"iter-{system.logic}-{system.flavor}")
        for _ in range(10):
            d = proofgen.random_derivation(rng, system, steps=14)
            got, want = list(d), preorder(d)
            assert len(got) == len(want)
            assert all(a is b for a, b in zip(got, want))
    depth = 5000
    assert depth > sys.getrecursionlimit()
    assert sum(1 for _ in detour_chain(depth)) == 3 * depth + 1


# --- weakening -------------------------------------------------------------


def test_weakening_at_root_preserves_ok():
    rng = random.Random(20260822)
    for i in range(40):
        system = K.System(rng.choice(K.LOGICS), rng.choice(K.FLAVORS))
        d = proofgen.random_derivation(rng, system, steps=12)
        extra = K.hyp("wk", proofgen.random_formula(rng), d.conclusion.position)
        weakened = K.and_e1(K.and_i(d, extra))
        report = K.check(weakened, system)
        assert report.ok, (i, system, report.violations)
        assert weakened.conclusion == d.conclusion


def test_weakening_inside_a_box_scope_can_clash():
    # An assumption whose position collides with a witness position breaks
    # freshness when inserted inside the scope — weakening is safe only at
    # positions fresh witnesses do not govern.
    body = K.box_e(K.hyp("u", Box(P), ()), ("x",))
    good = K.box_i("x", frozenset(), body)
    assert K.check(good, S4).ok
    weakened_inside = K.box_i(
        "x", frozenset(), K.and_e1(K.and_i(body, K.hyp("w", Q, ("x",))))
    )
    assert not K.check(weakened_inside, S4).ok


# --- position condition ----------------------------------------------------


def test_position_condition_builtin_four():
    d, _ = K.builtin("four", "s4")
    assert K.check_position_condition(d) == ()


def test_position_condition_duplicate_witness():
    left = K.box_i("x", frozenset(), K.box_e(K.hyp("u", Box(P), ()), ("x",)))
    right = K.box_i("x", frozenset(), K.box_e(K.hyp("v", Box(Q), ()), ("x",)))
    d = K.and_i(left, right)
    violations = K.check_position_condition(d)
    assert any("more than one" in v.message for v in violations)


def test_position_condition_vacuous_without_modal_rules():
    d = K.imp_i(frozenset({"u"}), K.hyp("u", P, ()))
    assert K.check_position_condition(d) == ()


def test_position_condition_escaping_witness():
    # the witness position (x) used outside the box-i scope
    inner = K.box_i("x", frozenset(), K.box_e(K.hyp("u", Box(P), ()), ("x",)))
    d = K.and_i(inner, K.hyp("w", Q, ("x",)))
    violations = K.check_position_condition(d)
    assert any("outside the scope" in v.message for v in violations)


# --- freshen ---------------------------------------------------------------


def test_freshen_repairs_duplicate_witness():
    left = K.box_i("x", frozenset(), K.box_e(K.hyp("u", Box(P), ()), ("x",)))
    right = K.box_i("x", frozenset(), K.box_e(K.hyp("v", Box(Q), ()), ("x",)))
    d = K.and_i(left, right)
    assert K.check(d, S4).ok  # per-node checking passes
    assert K.check_position_condition(d) != ()
    f = K.freshen(d)
    assert K.check(f, S4).ok
    assert K.check_position_condition(f) == ()
    assert f.conclusion == d.conclusion


def test_freshen_preserves_report_on_random_trees():
    rng = random.Random(7)
    for i in range(40):
        system = K.System(rng.choice(K.LOGICS), rng.choice(K.FLAVORS))
        d = proofgen.random_derivation(rng, system, steps=12)
        before = K.check(d, system)
        f = K.freshen(d)
        after = K.check(f, system)
        assert after.ok == before.ok
        assert f.conclusion == d.conclusion
        assert sorted(
            (a.label, a.content) for a in after.open_assumptions
        ) == sorted((a.label, a.content) for a in before.open_assumptions)
        assert K.check_position_condition(f) == ()


def test_position_transforms_take_any_depth():
    assert sys.getrecursionlimit() < 2000
    boxes = box_chain(2000)
    for d in (detour_chain(5000), boxes):
        assert K.freshen(d).conclusion == d.conclusion
        shifted = K.map_positions(d, lambda p: ("y",) + p)
        assert shifted.conclusion == PFormula(d.conclusion.formula, ("y",))
        assert K.map_positions(shifted, lambda p: p[1:]) == d
        renamed = K.map_positions(d, lambda p: prefix_replace(p, ("x",), ("z",)))
        assert renamed.conclusion == d.conclusion
    assert K.check_position_condition(boxes) != ()
    f = K.freshen(boxes)
    assert K.check_position_condition(f) == ()
    assert K.check(f, S4).ok
    assert f.conclusion == boxes.conclusion
    # post-order: the innermost box-i is numbered first
    assert [n.token for n in f if n.rule == "box-i"] == [
        f"_{i}" for i in range(1999, -1, -1)
    ]


def test_walks_take_any_depth():
    assert sys.getrecursionlimit() < 2000
    s4i = K.System("s4", "intuitionistic")
    for make in (
        lambda: detour_chain(5000), lambda: box_chain(2000), lambda: or_chain(2000)
    ):
        d, twin = make(), make()
        assert d == twin and hash(d) == hash(twin)
        assert d != K.map_positions(d, lambda p: ("y",) + p)
        body = d.premises[0] if d.rule == "imp-i" else d
        u = [n.content for n in body if n.rule == "hyp" and n.label == "u"]
        assert K.bound_leaf_contents(body, frozenset({"u"}), "p") == u
        w = K.plug(body, frozenset({"u"}), K.hyp("w", u[0].formula, ()))
        assert K.plug(w, frozenset({"w"}), K.hyp("u", u[0].formula, ())) == body
        r = K.relabel_binders(d, frozenset())
        binders = [lab for n in r for _i, labels, _k in K._scopes(n) for lab in labels]
        assert len(set(binders)) == len(binders)
        assert K.check(r, S4).open_assumptions == K.check(d, S4).open_assumptions
        lifted = K.map_positions(K.freshen(d), lambda p: ("y",) + p)
        assert K.substitute(d, (), ("y",), S4) == lifted
        c = T.classical_to_intuitionistic(d, S4).conclusion
        assert c == PFormula(T.g_translate(d.conclusion.formula), ())
    ors = or_chain(2000)
    assert K.bound_leaf_contents(ors.premises[0], frozenset({"b"}), "p") == []
    assert N.normalize(ors, s4i) == (ors, [(0, 0)])
    assert N.reduce_once(ors, s4i) is None
    assert K.parse_proof(K.print_proof(ors, S4)) == (ors, S4)
    (spine,) = N.all_spines(box_chain(2000))
    assert len(spine) == 4001 and spine[0] == (0,) * 4000 and spine[-1] == ()
    for d in (ors, box_chain(2000)):
        text = T.print_labelled(T.derivation_to_labelled(d, S4))
        lines = text.splitlines()
        assert lines[0] == "labelled-sketch total"
        assert len(lines) >= 1 + sum(1 for _ in d)


def test_first_bound_leaf_is_the_first_of_all_bound_leaves():
    rng = random.Random(8)
    trees = [K.builtin(axiom, logic)[0] for axiom, logic in K.BUILTIN_PAIRS]
    trees += [
        proofgen.random_derivation(rng, system, steps=14)
        for system in SYSTEMS
        for _ in range(5)
    ]
    trees += [imp_and_chain(20), or_chain(20), detour_chain(20)]
    a, b = K.hyp("a", P, ()), K.hyp("b", Q, ())
    trees += [K.and_i(a, b), K.and_i(b, K.and_e1(K.and_i(a, b))), K.and_i(trees[-1], b)]
    hits = misses = mixed = 0
    for d in trees:
        scopes = [
            (n.premises[slot], labels)
            for n in d
            for slot, labels, kind in K._scopes(n)
            if kind == "p"
        ]
        scopes += [(n, K.all_labels(d)) for n in d]
        for prem, labels in scopes:
            want = K.bound_leaf_contents(prem, labels, "p")
            assert K._first_bound(prem, labels) == (want[0] if want else None)
            hits += bool(want)
            misses += not want
            mixed += len(set(want)) > 1
    assert hits > 500 and misses > 50 and mixed > 10


def test_imp_i_antecedents_are_read_off_the_first_bound_leaf(monkeypatch):
    # Printing decides and reading infers each antecedent from the first
    # bound leaf alone; a walk over each whole premise would enter about
    # 1.5 million nodes here.
    d = imp_and_chain(1000)
    entered = []
    enter = K._FREE_LABELS["p"]

    def counting(n, free):
        entered.append(n)
        return enter(n, free)

    monkeypatch.setitem(K._FREE_LABELS, "p", counting)
    text = K.print_proof(d, S4)
    d2, system = K.parse_proof(text)
    assert len(entered) < 10 * 1000
    assert (d2, system) == (d, S4)
    assert K.print_proof(d2, system) == text
    assert "(imp-i (v999)\n" in text  # the antecedent is not written
    assert K.check(d2, system).ok


def _peak_bytes(fn, *args):
    tracemalloc.start()
    try:
        out = fn(*args)
        return out, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_cut_scan_memory_is_linear_in_nodes():
    # A cut scan indexes nodes by pre-order number, not by path: a path per
    # node would hold O(nodes x depth), about 49 MB here.
    ors = or_chain(2000)
    rk, peak = _peak_bytes(N.rank, ors)
    assert rk == (0, 0)
    assert peak < 5_000_000


def test_reduce_once_on_a_long_detour_chain():
    assert sys.getrecursionlimit() < 2000
    d = detour_chain(2000)
    out, peak = _peak_bytes(N.reduce_once, d, K.System("s4", "intuitionistic"))
    assert N.rank(d) == (1, 2000) and N.rank(out) == (1, 1999)
    assert out.conclusion == d.conclusion
    # Selection tests each cut's duplication zones as pre-order ranges; a
    # path per node and per occurrence would hold about 50 MB here.
    assert peak < 10_000_000


def test_freshen_keeps_builtin_conclusion():
    d, system = K.builtin("d", "d")
    f = K.freshen(d)
    assert f.conclusion == PFormula(Imp(Box(P), Dia(P)), ())
    assert K.check(f, system).ok


# --- substitute ------------------------------------------------------------


def test_substitute_uniform_renaming():
    d = K.box_e(K.hyp("u", Box(P), ()), ("x",))
    out = K.substitute(d, ("x",), ("y",), S4)
    assert out.conclusion == PFormula(P, ("y",))
    assert out.rule == "box-e" and out.beta == ("y",)


def test_substitute_deletes_collapsed_reposition():
    d = K.bot_i(K.hyp("u", Bottom(), ()), Bottom(), ("x",))
    out = K.substitute(d, ("x",), (), S4)
    assert out.rule == "hyp"
    assert out.conclusion == PFormula(Bottom(), ())


def test_substitute_absent_prefix_is_identity():
    d = K.imp_e(K.hyp("u", Imp(P, Q), ("a",)), K.hyp("v", P, ("a",)))
    out = K.substitute(d, ("z",), ("y", "y"), S4)
    assert out == d


def test_substitute_interior_collapse_also_deleted():
    inner = K.bot_i(K.hyp("u", Bottom(), ()), Bottom(), ("x",))
    d = K.bot_i(inner, P, ("a",))
    out = K.substitute(d, ("x",), (), S4)
    assert out.rule == "bot-i"
    assert out.premises[0].rule == "hyp"
    assert out.conclusion == PFormula(P, ("a",))


def test_substitute_cutting_a_step_raises():
    cut = K.box_e(K.hyp("u", Box(P), ("a",)), ("b",))
    for gamma in [("c",), ("c", "d"), ()]:
        with pytest.raises(K.SubstitutionUnsound):
            K.substitute(cut, ("a", "b"), gamma, S4)


def test_substitute_aligned_prefix_through_step():
    cut = K.box_e(K.hyp("u", Box(P), ("a",)), ("b",))
    out = K.substitute(cut, ("a",), ("c", "c"), S4)
    assert out.conclusion == PFormula(P, ("c", "c", "b"))
    assert K.check(out, S4).ok


def test_substitute_requires_checking_input():
    bad = K.and_e1(K.hyp("u", P, ()))
    with pytest.raises(ValueError):
        K.substitute(bad, ("x",), (), S4)


def test_substitute_soundness_500_random():
    rng = random.Random(20260822)
    successes = 0
    unsound = 0
    for _ in range(500):
        system = K.System(rng.choice(K.LOGICS), rng.choice(K.FLAVORS))
        d = K.freshen(proofgen.random_derivation(rng, system, steps=10))
        beta = proofgen.random_position(rng)
        gamma = proofgen.random_position(rng)
        try:
            out = K.substitute(d, beta, gamma, system)
        except K.SubstitutionUnsound:
            unsound += 1
            continue
        successes += 1
        assert K.check(out, system).ok
        want = prefix_replace(d.conclusion.position, beta, gamma)
        assert out.conclusion.position == want
        assert out.conclusion.formula == d.conclusion.formula
    assert successes >= 300, (successes, unsound)


# --- lift ------------------------------------------------------------------


def test_lift_t_axiom():
    d, system = K.builtin("t", "t")
    out = K.lift(d, ("z",), system)
    assert out.conclusion == PFormula(Imp(Box(P), P), ("z",))
    assert K.check(out, system).ok


def test_lift_empty_prefix_identity():
    d, system = K.builtin("d", "d")
    assert K.lift(d, (), system) == d


def test_lift_leaf():
    d = K.hyp("u", P, ("x",))
    out = K.lift(d, ("z",), S4)
    assert out.conclusion == PFormula(P, ("z", "x"))


def test_lift_all_builtins_all_short_prefixes():
    prefixes = [(), ("a",), ("b",), ("a", "a"), ("a", "b"), ("b", "a"), ("b", "b")]
    for axiom, logic in K.BUILTIN_PAIRS:
        d, system = K.builtin(axiom, logic)
        for beta in prefixes:
            out = K.lift(d, beta, system)
            report = K.check(out, system)
            assert report.ok, (axiom, logic, beta, report.violations)
            assert out.conclusion.position == beta + d.conclusion.position
            assert out.conclusion.formula == d.conclusion.formula


# --- expand_efq ------------------------------------------------------------


def test_expand_efq_conjunction():
    prem = K.hyp("u", Bottom(), ())
    out = K.expand_efq(PFormula(And(P, Q), ()), prem, S4)
    assert out.rule == "and-i"
    assert out.premises[0].rule == "bot-i"
    assert out.premises[1].rule == "bot-i"
    assert K.check(out, S4).ok
    assert out.conclusion == PFormula(And(P, Q), ())


def test_expand_efq_repositioned_bottom():
    prem = K.hyp("u", Bottom(), ())
    out = K.expand_efq(PFormula(Bottom(), ("x",)), prem, S4)
    assert out.rule == "bot-i"
    assert K.check(out, S4).ok


def test_expand_efq_box():
    prem = K.hyp("u", Bottom(), ())
    out = K.expand_efq(PFormula(Box(P), ()), prem, S4)
    assert out.rule == "box-i"
    assert out.premises[0].rule == "bot-i"
    assert K.check(out, S4).ok


def test_expand_efq_same_target_rejected():
    prem = K.hyp("u", Bottom(), ("x",))
    with pytest.raises(ValueError):
        K.expand_efq(PFormula(Bottom(), ("x",)), prem, S4)


def test_expand_efq_partial_dia_not_expandable():
    prem = K.hyp("u", Bottom(), ())
    target = PFormula(And(P, Dia(Q)), ("w",))
    with pytest.raises(K.NotExpandable) as exc:
        K.expand_efq(target, prem, K.System("k", "classical"))
    assert exc.value.subformula == Dia(Q)


def test_expand_efq_partial_box_allowed():
    prem = K.hyp("u", Bottom(), ())
    out = K.expand_efq(PFormula(Box(P), ()), prem, K.System("k", "classical"))
    assert K.check(out, K.System("k", "classical")).ok


def test_expand_efq_deep_target_all_logics():
    target = PFormula(Imp(Or(P, Q), And(Box(P), Imp(Q, P))), ())
    for logic in K.LOGICS:
        system = K.System(logic, "intuitionistic")
        prem = K.hyp("u", Bottom(), ("w",))
        out = K.expand_efq(target, prem, system)
        report = K.check(out, system)
        assert report.ok, (logic, report.violations)
        assert out.conclusion == target


# --- proof files -----------------------------------------------------------


def test_proof_roundtrip_all_builtins():
    for axiom, logic in K.BUILTIN_PAIRS:
        d, system = K.builtin(axiom, logic)
        text = K.print_proof(d, system)
        d2, system2 = K.parse_proof(text)
        assert d2 == d, (axiom, logic)
        assert system2 == system
        assert K.print_proof(d2, system2) == text


def test_proof_print_sanitizes_reserved_tokens():
    d, system = K.builtin("four", "s4")
    f = K.freshen(d)
    assert any(
        t.startswith("_") for n in f for t in n.conclusion.position
    ) or any(n.token and n.token.startswith("_") for n in f)
    text = K.print_proof(f, system)
    assert "_" not in text
    d2, system2 = K.parse_proof(text)
    assert K.check(d2, system2).ok
    assert d2.conclusion == d.conclusion


def test_proof_print_renames_a_reserved_witness_no_assumption_uses():
    # the freshened witness token occurs in no position
    d = K.dia_e(
        K.hyp("u", Dia(P), ()), "x", frozenset({"w"}), frozenset(), K.hyp("v", Q, ())
    )
    f = K.freshen(d)
    assert f.token == "_0"
    text = K.print_proof(f, S4)
    assert "(hyp u (dia p) ()) z1 (w) ()" in text
    d2, _system = K.parse_proof(text)
    assert d2.token == "z1" and K.check(d2, S4).ok


def test_proof_parse_error_reports_location():
    with pytest.raises(ParseError) as exc:
        K.parse_proof("(proof :system s4 :flavor classical\n  (hyp u (and p) ())")
    assert exc.value.line >= 1


def test_proof_parse_unknown_rule():
    with pytest.raises(ParseError) as exc:
        K.parse_proof("(proof :system s4 :flavor classical (frob u p ()))")
    assert "unknown rule" in exc.value.message


def test_proof_parse_unknown_logic():
    with pytest.raises(ParseError) as exc:
        K.parse_proof("(proof :system z9 :flavor classical (hyp u p ()))")
    assert "unknown logic" in exc.value.message


def test_proof_parse_reserved_token_rejected():
    with pytest.raises(ParseError):
        K.parse_proof("(proof :system s4 :flavor classical (hyp u p (_1)))")


def test_proof_parse_vacuous_imp_i_needs_antecedent():
    with pytest.raises(ParseError) as exc:
        K.parse_proof(
            "(proof :system s4 :flavor classical (imp-i (z) (hyp u p ())))"
        )
    assert "antecedent" in exc.value.message


def test_proof_vacuous_imp_i_extension_roundtrip():
    d = K.imp_i(frozenset(), K.hyp("u", Q, ()), ante=PFormula(P, ()))
    text = K.print_proof(d, S4)
    assert "imp-i" in text and "(p ())" not in text  # ante printed as two args
    d2, _ = K.parse_proof(text)
    assert d2 == d
    assert d2.conclusion == PFormula(Imp(P, Q), ())


def test_proof_parse_total_variant_files():
    text = """
    (proof :system k :flavor classical
      (imp-i (u1)
        (imp-i (u2)
          (box-i x (e1)
            (imp-e
              (box-e (hyp u1 (box (imp p q)) ()) (x) (ehyp e1 (x)))
              (box-e (hyp u2 (box p) ()) (x) (ehyp e1 (x))))))))
    """
    d, system = K.parse_proof(text)
    report = K.check(d, system)
    assert report.ok, report.violations
    k_builtin, _ = K.builtin("k", "k")
    assert d.conclusion == k_builtin.conclusion


def test_check_report_serialization():
    d, system = K.builtin("t", "t")
    bad = K.check(d, K.System("k", "classical"))
    text = K.print_check_report(bad)
    form = parse_one(text)
    assert form[0] == "check-report"
    assert form[form.index(":ok") + 1] == "false"
    viols = form[form.index(":violations") + 1]
    assert any("box-e" in v for v in viols)
    good = K.check(d, system)
    text2 = K.print_check_report(good)
    form2 = parse_one(text2)
    assert form2[form2.index(":ok") + 1] == "true"


def test_check_report_lists_opens():
    d = K.and_i(K.hyp("u", P, ()), K.hyp("v", Q, ()))
    text = K.print_check_report(K.check(d, S4))
    form = parse_one(text)
    opens = form[form.index(":open") + 1]
    assert len(opens) == 2
    labels = [o[o.index(":label") + 1] for o in opens]
    assert labels == ["u", "v"]


def test_print_proof_breaks_lines_only_before_premises():
    # a label list and a position headed by a rule name stay inline
    d = K.imp_i(frozenset({"hyp"}), K.hyp("hyp", P, ("hyp", "x")))
    text = K.print_proof(d, S4)
    assert text == (
        "(proof :system s4 :flavor classical\n"
        "  (imp-i (hyp)\n"
        "    (hyp hyp p (hyp x))))\n"
    )
    assert K.parse_proof(text) == (d, S4)


def test_deep_proofs_round_trip_through_files():
    for d in (detour_chain(5000), box_chain(2000)):
        text = K.print_proof(d, S4)
        d2, system = K.parse_proof(text)
        assert system == S4
        assert d2 == d
        assert K.check(d2, system).ok
        assert K.print_proof(d2, system) == text


def test_reading_takes_any_depth():
    assert sys.getrecursionlimit() < 2000
    n = 100_000
    deep = "(box " * n + "p" + ")" * n
    d, system = K.parse_proof(f"(proof :system s4 :flavor classical (hyp u {deep} ()))")
    for f in (d.content.formula, parse_formula(deep)):
        depth = 0
        while isinstance(f, Box):
            f, depth = f.body, depth + 1
        assert (depth, f) == (n, P)
    with pytest.raises(ParseError, match=r"^line 1, column 1: \(box \.\.\.\) takes one operand"):
        parse_formula("(box " * n + ")" * n)
    with pytest.raises(ParseError, match=r"column 44: \(and \.\.\.\) takes two operands"):
        K.parse_proof(
            "(proof :system s4 :flavor classical (hyp u "
            + "(box " * n + "(and p)" + ")" * n + " ()))"
        )
    with pytest.raises(ParseError, match=r"invalid position token \(\(\(\(.*\.\.\.$"):
        parse_position("(" * n + ")" * n)
    assert parse_position("(" + " x" * n + ")") == ("x",) * n
    chain = detour_chain(20_000)
    assert K.parse_proof(K.print_proof(chain, S4)) == (chain, S4)


def test_printed_size_is_linear_in_depth():
    sizes = []
    for depth in (1000, 2000, 4000):
        d = detour_chain(depth)
        text = K.print_proof(d, S4)
        assert K.parse_proof(text) == (d, S4)
        assert max(len(line) - len(line.lstrip(" ")) for line in text.splitlines()) == (
            2 * K._INDENT_LIMIT
        )
        sizes.append(len(text))
    assert 1.9 < sizes[1] / sizes[0] < 2.1 and 1.9 < sizes[2] / sizes[1] < 2.1


def test_print_proof_deterministic():
    d, system = K.builtin("dia-dual", "k4")
    assert K.print_proof(d, system) == K.print_proof(d, system)


def test_parse_proof_rejects_multiple_forms():
    with pytest.raises(ParseError):
        K.parse_proof(
            "(proof :system s4 :flavor classical (hyp u p ()))\n"
            "(proof :system s4 :flavor classical (hyp u p ()))"
        )


def test_random_trees_roundtrip_through_files():
    rng = random.Random(11)
    for _ in range(30):
        system = K.System(rng.choice(K.LOGICS), rng.choice(K.FLAVORS))
        d = proofgen.random_derivation(rng, system, steps=12)
        text = K.print_proof(d, system)
        d2, system2 = K.parse_proof(text)
        assert system2 == system
        assert d2 == d
        assert K.check(d2, system2).ok
