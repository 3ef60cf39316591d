"""Tests for the double-negation and labelled-sequent bridges."""

import random

import pytest

from posnd import kernel as K
from posnd import normalizer as N
from posnd.kernel import System, check, open_assumptions
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
    neg,
    print_formula,
)
from posnd.translate import (
    LabelNotOpen,
    LabelledSequent,
    NotEligible,
    build_dne,
    classical_to_intuitionistic,
    contrapose,
    derivation_to_labelled,
    g_translate,
    is_negative_over_dna,
    judgment_to_labelled,
    pos_to_relational,
    position_label,
    print_labelled,
)

import proofgen
from test_witness_copy_oracle import deep_chains

P, Q, R = Atom("p"), Atom("q"), Atom("r")
LOGICS = ("k", "d", "t", "k4", "d4", "s4")


def random_formula(rng: random.Random, depth: int):
    if depth == 0 or rng.random() < 0.3:
        return rng.choice([P, Q, R, Bottom()])
    kind = rng.choice(["and", "or", "imp", "box", "dia"])
    if kind == "box":
        return Box(random_formula(rng, depth - 1))
    if kind == "dia":
        return Dia(random_formula(rng, depth - 1))
    left = random_formula(rng, depth - 1)
    right = random_formula(rng, depth - 1)
    return {"and": And, "or": Or, "imp": Imp}[kind](left, right)


def modal_depth(f) -> int:
    if isinstance(f, (Atom, Bottom)):
        return 0
    if isinstance(f, (Box, Dia)):
        return 1 + modal_depth(f.body)
    return max(modal_depth(f.left), modal_depth(f.right))


class TestGTranslate:
    def test_atom_becomes_double_negation(self):
        assert g_translate(P) == neg(neg(P))

    def test_absurdity_fixed(self):
        assert g_translate(Bottom()) == Bottom()

    def test_disjunction_becomes_negated_conjunction(self):
        assert g_translate(Or(P, Q)) == neg(
            And(neg(neg(neg(P))), neg(neg(neg(Q))))
        )

    def test_possibility_becomes_negated_necessity(self):
        assert g_translate(Dia(P)) == neg(Box(neg(neg(neg(P)))))

    def test_conjunction_implication_necessity_homomorphic(self):
        gp, gq = g_translate(P), g_translate(Q)
        assert g_translate(And(P, Q)) == And(gp, gq)
        assert g_translate(Imp(P, Q)) == Imp(gp, gq)
        assert g_translate(Box(P)) == Box(gp)

    def test_modal_depth_preserved(self):
        rng = random.Random(7)
        for _ in range(200):
            f = random_formula(rng, 4)
            assert modal_depth(g_translate(f)) == modal_depth(f)

    def test_images_always_in_negative_fragment(self):
        rng = random.Random(11)
        for _ in range(1000):
            f = random_formula(rng, 5)
            assert is_negative_over_dna(g_translate(f))


class TestNegativeFragment:
    def test_members(self):
        assert is_negative_over_dna(Bottom())
        assert is_negative_over_dna(neg(neg(P)))
        assert is_negative_over_dna(Box(Imp(neg(neg(P)), Bottom())))
        assert is_negative_over_dna(And(neg(neg(P)), Bottom()))
        assert is_negative_over_dna(Imp(Bottom(), Bottom()))

    def test_non_members(self):
        assert not is_negative_over_dna(P)
        assert not is_negative_over_dna(neg(P))
        assert not is_negative_over_dna(neg(neg(And(P, Q))))
        assert not is_negative_over_dna(Or(Bottom(), Bottom()))
        assert not is_negative_over_dna(Dia(Bottom()))
        assert not is_negative_over_dna(And(P, Bottom()))


DNE_SHAPES = [
    Bottom(),
    neg(neg(P)),
    And(neg(neg(P)), Bottom()),
    Imp(neg(neg(P)), neg(neg(Q))),
    Box(neg(neg(P))),
    Box(Box(Bottom())),
    Box(Imp(neg(neg(P)), Bottom())),
]


class TestBuildDne:
    @pytest.mark.parametrize("logic", LOGICS)
    def test_checks_closed_in_every_logic(self, logic):
        system = System(logic, "intuitionistic")
        for f in DNE_SHAPES:
            for alpha in [(), ("a",)]:
                d = build_dne(f, alpha, system)
                report = check(d, system)
                assert report.ok, (print_formula(f), report.violations)
                assert report.open_assumptions == ()
                assert d.conclusion == PFormula(Imp(neg(neg(f)), f), alpha)

    def test_partial_systems_use_existence_premises(self):
        system = System("k", "intuitionistic")
        d = build_dne(Box(Bottom()), (), system)
        rules = [n.rule for n in d]
        assert "ehyp" in rules
        assert any(n.rule == "box-i" and n.e_discharges for n in d)

    def test_total_systems_have_no_existence_premises(self):
        system = System("s4", "intuitionistic")
        d = build_dne(Box(Bottom()), (), system)
        assert all(n.rule != "ehyp" for n in d)

    @pytest.mark.parametrize(
        "bad", [P, neg(P), Or(Bottom(), Bottom()), Dia(Bottom())]
    )
    def test_ineligible_formulas_rejected(self, bad):
        with pytest.raises(NotEligible):
            build_dne(bad, (), System("k", "intuitionistic"))

    def test_classical_target_rejected(self):
        with pytest.raises(ValueError):
            build_dne(Bottom(), (), System("k", "classical"))


class TestContrapose:
    def test_identity_assumption(self):
        d = K.hyp("u", P, ())
        c = contrapose(d, "u")
        report = check(c, System("k", "intuitionistic"))
        assert report.ok
        assert c.conclusion == PFormula(neg(P), ())
        opens = [(a.label, a.content) for a in report.open_assumptions]
        assert len(opens) == 1
        assert opens[0][1] == PFormula(neg(P), ())

    def test_projection(self):
        d = K.and_e1(K.hyp("u", And(P, Q), ()))
        c = contrapose(d, "u", neg_label="w")
        report = check(c, System("k", "intuitionistic"))
        assert report.ok
        assert c.conclusion == PFormula(neg(And(P, Q)), ())
        opens = {(a.label, a.content) for a in report.open_assumptions}
        assert opens == {("w", PFormula(neg(P), ()))}

    def test_distinct_positions_reposition_absurdity(self):
        d = K.box_e(K.hyp("u", Box(P), ()), ("x",))
        c = contrapose(d, "u")
        report = check(c, System("t", "intuitionistic"))
        assert report.ok
        assert c.conclusion == PFormula(neg(Box(P)), ())
        assert any(n.rule == "bot-i" for n in c)
        opens = {a.content for a in report.open_assumptions}
        assert opens == {PFormula(neg(P), ("x",))}

    def test_other_assumptions_survive(self):
        d = K.imp_e(K.hyp("u", Imp(P, Q), ()), K.hyp("v", P, ()))
        c = contrapose(d, "v", neg_label="w")
        report = check(c, System("k", "intuitionistic"))
        assert report.ok
        opens = {(a.label, a.content) for a in report.open_assumptions}
        assert opens == {
            ("u", PFormula(Imp(P, Q), ())),
            ("w", PFormula(neg(Q), ())),
        }

    def test_unknown_label_rejected(self):
        with pytest.raises(LabelNotOpen):
            contrapose(K.hyp("u", P, ()), "nope")

    def test_existence_label_rejected(self):
        d = K.box_e(
            K.hyp("u", Box(P), ()), ("x",), K.ehyp("e", ("x",))
        )
        with pytest.raises(LabelNotOpen):
            contrapose(d, "e")

    def test_colliding_negation_label_rejected(self):
        with pytest.raises(ValueError):
            contrapose(K.hyp("u", P, ()), "u", neg_label="u")


class TestClassicalToIntuitionistic:
    @pytest.mark.parametrize("axiom,logic", sorted(K.BUILTIN_PAIRS))
    def test_builtin_corpus(self, axiom, logic):
        d, system = K.builtin(axiom, logic)
        out = classical_to_intuitionistic(d, system)
        report = check(out, System(logic, "intuitionistic"))
        assert report.ok, report.violations
        assert report.open_assumptions == ()
        assert out.conclusion == PFormula(
            g_translate(d.conclusion.formula), ()
        )

    def test_duality_input_exercises_classical_and_witness_rules(self):
        d, _ = K.builtin("dia-dual", "k")
        rules = {n.rule for n in d}
        assert "bot-c" in rules
        assert "dia-e" in rules

    def test_open_assumptions_mapped(self):
        d = K.imp_e(K.hyp("u", Imp(P, Q), ()), K.hyp("v", P, ()))
        out = classical_to_intuitionistic(d, System("k", "classical"))
        report = check(out, System("k", "intuitionistic"))
        assert report.ok
        opens = {(a.label, a.content) for a in report.open_assumptions}
        assert opens == {
            ("u", PFormula(g_translate(Imp(P, Q)), ())),
            ("v", PFormula(g_translate(P), ())),
        }

    def test_existence_assumptions_pass_through(self):
        d = K.box_e(K.hyp("u", Box(P), ()), ("x",), K.ehyp("e", ("x",)))
        out = classical_to_intuitionistic(d, System("k", "classical"))
        report = check(out, System("k", "intuitionistic"))
        assert report.ok
        opens = {(a.label, a.content) for a in report.open_assumptions}
        assert ("e", EFormula(("x",))) in opens
        assert out.conclusion == PFormula(g_translate(P), ("x",))

    def test_case_split_route(self):
        d = K.or_e(
            K.hyp("m", Or(P, P), ()),
            frozenset({"a"}),
            K.hyp("a", P, ()),
            frozenset({"b"}),
            K.hyp("b", P, ()),
        )
        out = classical_to_intuitionistic(d, System("k", "classical"))
        report = check(out, System("k", "intuitionistic"))
        assert report.ok
        assert out.conclusion == PFormula(g_translate(P), ())
        opens = {(a.label, a.content) for a in report.open_assumptions}
        assert opens == {("m", PFormula(g_translate(Or(P, P)), ()))}

    def test_vacuous_case_split_route(self):
        d = K.or_e(
            K.hyp("m", Or(P, Q), ()),
            frozenset(),
            K.hyp("c", Q, ()),
            frozenset({"b"}),
            K.hyp("b", Q, ()),
        )
        assert check(d, System("k", "classical")).ok
        out = classical_to_intuitionistic(d, System("k", "classical"))
        report = check(out, System("k", "intuitionistic"))
        assert report.ok
        opens = {(a.label, a.content) for a in report.open_assumptions}
        assert opens == {
            ("m", PFormula(g_translate(Or(P, Q)), ())),
            ("c", PFormula(g_translate(Q), ())),
        }

    def test_classical_absurdity_route(self):
        d = K.bot_c(
            frozenset({"u"}),
            K.imp_e(K.hyp("u", neg(P), ()), K.hyp("v", P, ())),
            P,
            (),
        )
        out = classical_to_intuitionistic(d, System("k", "classical"))
        report = check(out, System("k", "intuitionistic"))
        assert report.ok
        assert out.conclusion == PFormula(g_translate(P), ())
        opens = {(a.label, a.content) for a in report.open_assumptions}
        assert opens == {("v", PFormula(g_translate(P), ()))}

    def test_atomic_absurdity_route(self):
        d = K.bot_i(
            K.imp_e(K.hyp("u", neg(P), ()), K.hyp("v", P, ())), Q, ()
        )
        out = classical_to_intuitionistic(d, System("k", "classical"))
        report = check(out, System("k", "intuitionistic"))
        assert report.ok
        assert out.conclusion == PFormula(g_translate(Q), ())

    def test_positions_preserved(self):
        d = K.box_e(K.hyp("u", Box(P), ()), ("x",))
        out = classical_to_intuitionistic(d, System("t", "classical"))
        assert out.conclusion == PFormula(g_translate(P), ("x",))

    def test_non_classical_input_system_rejected(self):
        d = K.hyp("u", P, ())
        with pytest.raises(ValueError):
            classical_to_intuitionistic(d, System("k", "intuitionistic"))

    def test_non_checking_input_rejected(self):
        d = K.box_e(K.hyp("u", Box(P), ()), ("x",))  # no witness premise
        with pytest.raises(ValueError):
            classical_to_intuitionistic(d, System("k", "classical"))

    @pytest.mark.parametrize("seed", range(40))
    def test_random_derivations_translate(self, seed):
        rng = random.Random(seed)
        system = System(LOGICS[seed % 6], "classical")
        d = proofgen.random_derivation(rng, system, 14)
        out = classical_to_intuitionistic(d, system)
        report = check(out, System(system.logic, "intuitionistic"))
        assert report.ok, report.violations
        assert out.conclusion == PFormula(
            g_translate(d.conclusion.formula), d.conclusion.position
        )
        expected = sorted(
            repr(
                (
                    a.label,
                    a.content
                    if isinstance(a.content, EFormula)
                    else PFormula(
                        g_translate(a.content.formula), a.content.position
                    ),
                )
            )
            for a in open_assumptions(d)
        )
        actual = sorted(
            repr((a.label, a.content)) for a in report.open_assumptions
        )
        assert expected == actual


class TestPositionLabels:
    def test_labels(self):
        assert position_label(()) == "w_"
        assert position_label(("x",)) == "w_x"
        assert position_label(("x", "y")) == "w_x_y"

    def test_chains(self):
        assert pos_to_relational(()) == ()
        assert pos_to_relational(("x",)) == (("w_", "w_x"),)
        assert pos_to_relational(("x", "y")) == (
            ("w_", "w_x"),
            ("w_x", "w_x_y"),
        )

    def test_chain_shape(self):
        rng = random.Random(3)
        for _ in range(50):
            alpha = tuple(
                rng.choice("abc") for _ in range(rng.randrange(5))
            )
            chain = pos_to_relational(alpha)
            assert len(chain) == len(alpha)
            for first, second in zip(chain, chain[1:]):
                assert first[1] == second[0]


class TestJudgmentToLabelled:
    def test_total_mode_adds_position_chains(self):
        seq = judgment_to_labelled(
            [PFormula(Box(P), ())], PFormula(P, ("x",)), "total"
        )
        assert seq == LabelledSequent(
            frozenset({("w_", Box(P))}),
            frozenset({("w_", "w_x")}),
            ("w_x", P),
        )

    def test_partial_mode_translates_existence_only(self):
        seq = judgment_to_labelled(
            [PFormula(Box(P), ()), EFormula(("x",))],
            PFormula(P, ("x",)),
            "partial",
        )
        assert seq == LabelledSequent(
            frozenset({("w_", Box(P))}),
            frozenset({("w_", "w_x")}),
            ("w_x", P),
        )

    def test_partial_mode_has_no_position_chains(self):
        seq = judgment_to_labelled(
            [PFormula(P, ("x", "y"))], PFormula(Q, ()), "partial"
        )
        assert seq.relations == frozenset()
        assert seq.formulas == {("w_x_y", P)}

    def test_total_mode_rejects_existence(self):
        with pytest.raises(ValueError):
            judgment_to_labelled(
                [EFormula(("x",))], PFormula(P, ()), "total"
            )

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError):
            judgment_to_labelled([], PFormula(P, ()), "sideways")


def skeleton(step):
    return (step.rule,) + tuple(skeleton(p) for p in step.premises)


class TestDerivationToLabelled:
    def test_transitive_axiom_inserts_one_trans(self):
        d, system = K.builtin("four", "s4")
        sketch = derivation_to_labelled(d, system)
        assert sketch.mode == "total"
        assert skeleton(sketch.root) == (
            "imp-i",
            ("box-i-l", ("box-i-l", ("trans", ("box-e-l", ("hyp",))))),
        )

    def test_reflexive_axiom_inserts_one_refl(self):
        d, system = K.builtin("t", "t")
        sketch = derivation_to_labelled(d, system)
        assert skeleton(sketch.root) == (
            "imp-i",
            ("refl", ("box-e-l", ("hyp",))),
        )
        refl = sketch.root.premises[0]
        assert refl.sequent == LabelledSequent(
            frozenset({("w_", Box(P))}), frozenset(), ("w_", P)
        )
        core = refl.premises[0]
        assert core.sequent.relations == frozenset({("w_", "w_")})

    def test_serial_axiom_inserts_one_ser(self):
        d, system = K.builtin("d", "d")
        sketch = derivation_to_labelled(d, system)
        assert skeleton(sketch.root) == (
            "imp-i",
            ("ser", ("dia-i-l", ("box-e-l", ("hyp",)))),
        )
        ser = sketch.root.premises[0]
        assert ser.sequent.relations == frozenset()
        core = ser.premises[0]
        assert core.sequent.relations == frozenset({("w_", "w_x")})

    def test_distribution_axiom_translates_directly(self):
        d, system = K.builtin("k", "k")
        sketch = derivation_to_labelled(d, system)
        assert sketch.mode == "partial"
        assert skeleton(sketch.root) == (
            "imp-i",
            (
                "imp-i",
                (
                    "box-i-l",
                    (
                        "imp-e",
                        ("box-e-l", ("hyp",)),
                        ("box-e-l", ("hyp",)),
                    ),
                ),
            ),
        )

    def test_no_structural_rules_in_partial_mode(self):
        for axiom, logic in sorted(K.BUILTIN_PAIRS):
            if logic not in ("k", "k4"):
                continue
            d, system = K.builtin(axiom, logic)
            sketch = derivation_to_labelled(d, system)

            def rules(step):
                yield step.rule
                for p in step.premises:
                    yield from rules(p)

            found = set(rules(sketch.root))
            assert not found & {"refl", "ser", "trans"}
            assert "ehyp" not in found

    def test_sketch_flagged(self):
        d, system = K.builtin("t", "t")
        sketch = derivation_to_labelled(d, system)
        assert "sketch" in sketch.note

    def test_printing_is_stable(self):
        d, system = K.builtin("t", "t")
        text = print_labelled(derivation_to_labelled(d, system))
        assert text == (
            "labelled-sketch total\n"
            "  |- w_:(imp (box p) p)  [imp-i]\n"
            "    w_:(box p) |- w_:p  [refl]\n"
            "      w_:(box p), w_ R w_ |- w_:p  [box-e-l]\n"
            "        w_:(box p) |- w_:(box p)  [hyp]\n"
        )

    @pytest.mark.parametrize("seed", range(20))
    def test_random_trees_export(self, seed):
        rng = random.Random(1000 + seed)
        system = System(LOGICS[seed % 6], "classical")
        d = proofgen.random_derivation(rng, system, 12)
        sketch = derivation_to_labelled(d, system)
        text = print_labelled(sketch)
        assert text.startswith("labelled-sketch")
        assert text.count("|-") >= 1


def _worlds(sketch):
    """Every world label in a labelled sketch."""
    out = set()
    stack = [sketch.root]
    while stack:
        step = stack.pop()
        seq = step.sequent
        out.add(seq.right[0])
        out.update(lab for lab, _ in seq.formulas)
        for a, b in seq.relations:
            out.update((a, b))
        stack.extend(step.premises)
    return out


def _position_worlds(d, reserved):
    """The world labels of every position in ``d`` and its prefixes, those
    with a reserved token (``reserved=True``) or those without."""
    out = set()
    for n in d:
        for c in (n.conclusion, n.content, n.ante, n.target):
            if c is None:
                continue
            for i in range(len(c.position) + 1):
                p = c.position[:i]
                if any(t.startswith("_") for t in p) == reserved:
                    out.add(position_label(p))
    return out


def test_labelled_export_names_worlds_as_print_proof_does():
    renamed = 0
    for d, system in deep_chains():
        out, _ = N.normalize(d, system)
        sketch = derivation_to_labelled(out, system)
        worlds = _worlds(sketch)
        assert not worlds & _position_worlds(out, reserved=True)
        printed, _ = K.parse_proof(K.print_proof(out, system))
        assert worlds <= _position_worlds(printed, reserved=False)
        assert print_labelled(sketch) == print_labelled(derivation_to_labelled(printed, system))
        renamed += bool(_position_worlds(out, reserved=True))
    assert renamed > 20
