"""Tests for the tree-model layer: truth, evaluations, enumerators, probes."""

from __future__ import annotations

import itertools

import pytest

from posnd._sexpr import ParseError
from posnd.kernel import System, builtin
from posnd.semantics import (
    Bounds,
    Evaluation,
    NotAPrefix,
    TreeModel,
    UndefinedPosition,
    accessible,
    atom_names,
    chain_truth,
    consequence_probe,
    enumerate_evaluations,
    enumerate_models,
    find_countermodel,
    holds,
    node_subtract,
    parse_model,
    print_model,
    sat,
    sat_left,
    sat_right,
    soundness_probe,
    validate_evaluation,
    validate_model,
)
from posnd.semantics import _canonical_shapes, _class_shapes
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
)

P = Atom("p")
ALL_LOGICS = ("k", "d", "t", "k4", "d4", "s4")
TOTAL_LOGICS = ("d", "t", "d4", "s4")
PARTIAL = ("k", "k4")

# The test's own copy of the per-logic step relation, kept independent of
# the implementation so the extension lemmas are checked against a second
# derivation of the accessibility discipline.
REF_STEP = {
    "k": lambda s, t: t[: len(s)] == s and len(t) == len(s) + 1,
    "d": lambda s, t: t[: len(s)] == s and len(t) == len(s) + 1,
    "t": lambda s, t: t[: len(s)] == s and len(t) - len(s) in (0, 1),
    "k4": lambda s, t: t[: len(s)] == s and len(t) > len(s),
    "d4": lambda s, t: t[: len(s)] == s and len(t) > len(s),
    "s4": lambda s, t: t[: len(s)] == s,
}


def model(nodes, val=None, serial=False):
    return TreeModel(
        frozenset(nodes),
        {k: frozenset(v) for k, v in (val or {}).items()},
        serial,
    )


def ref_targets(m, logic, s):
    """One-step target worlds per the test's own reading of the relation."""
    out = [t for t in sorted(m.nodes, key=lambda n: (len(n), n)) if REF_STEP[logic](s, t)]
    if m.serial_completion:
        if s not in m.nodes:
            out.append(s + (0,))
            if logic in ("t", "s4"):
                out.append(s)
        else:
            leaves = [
                n
                for n in m.nodes
                if not any(c[: len(n)] == n and len(c) == len(n) + 1 for c in m.nodes)
            ]
            for leaf in sorted(leaves):
                if REF_STEP[logic](s, leaf + (0,)):
                    out.append(leaf + (0,))
    return out


M2 = model({(), (0,)}, {(0,): {"p"}})
M2D = model({(), (0,)}, {(0,): {"p"}}, serial=True)


class TestValidateModel:
    def test_two_node_tree_fine_for_k(self):
        assert validate_model(M2, "k") is True

    def test_serial_logic_requires_completion_flag(self):
        assert validate_model(M2, "d") is False
        assert validate_model(M2D, "d") is True
        assert validate_model(M2, "d4") is False

    def test_missing_root_prefix_rejected(self):
        assert validate_model(model({(0,)}), "k") is False
        assert validate_model(model({(), (0, 0)}), "k") is False

    def test_valuation_outside_tree_rejected(self):
        bad = model({()}, {(1,): {"p"}})
        assert validate_model(bad, "k") is False

    def test_non_natural_world_rejected(self):
        assert validate_model(model({(), (-1,)}), "k") is False

    def test_unknown_logic_raises(self):
        with pytest.raises(ValueError):
            validate_model(M2, "b")


class TestAccessible:
    def test_child_relation(self):
        m = model({(), (0,), (0, 0)})
        assert accessible(m, "k", (), (0,)) is True
        assert accessible(m, "k", (), (0, 0)) is False

    def test_reflexive_logics_see_themselves(self):
        assert accessible(M2, "s4", (), ()) is True
        assert accessible(M2, "t", (), ()) is True
        assert accessible(M2, "k", (), ()) is False

    def test_transitive_reaches_grandchildren(self):
        m = model({(), (0,), (0, 1)})
        assert accessible(m, "k4", (), (0, 1)) is True
        assert accessible(m, "t", (), (0, 1)) is False

    def test_completion_chain_counts_when_flagged(self):
        leafy = model({()}, serial=True)
        assert accessible(leafy, "d", (), (0,)) is True
        assert accessible(leafy, "d4", (), (0, 0)) is True
        bare = model({()})
        assert accessible(bare, "k", (), (0,)) is False


class TestHolds:
    def test_diamond_via_child(self):
        assert holds(M2, "k", (), Dia(P)) is True

    def test_box_via_children(self):
        assert holds(M2, "k", (), Box(P)) is True
        wide = model({(), (0,), (1,)}, {(0,): {"p"}})
        assert holds(wide, "k", (), Box(P)) is False

    def test_reflexive_logic_validates_unboxing_everywhere(self):
        goal = Imp(Box(P), P)
        for m in enumerate_models(Bounds(2, 2, 1), "t"):
            for world in m.nodes:
                assert holds(m, "t", world, goal)

    def test_serial_logic_validates_seriality_everywhere(self):
        goal = Imp(Box(P), Dia(P))
        for m in enumerate_models(Bounds(2, 2, 1), "d"):
            for world in m.nodes:
                assert holds(m, "d", world, goal)

    def test_box_at_serial_leaf_reads_the_chain(self):
        rooted = model({()}, {(): {"p"}}, serial=True)
        assert holds(rooted, "d", (), Box(P)) is True
        empty = model({()}, serial=True)
        assert holds(empty, "d", (), Box(P)) is False
        assert holds(empty, "d", (), Dia(P)) is False

    def test_world_outside_structure_raises(self):
        with pytest.raises(ValueError):
            holds(M2, "k", (5,), P)


class TestChainTruth:
    def test_box_on_constant_chain(self):
        assert chain_truth({"p"}, "d", Box(P)) is True

    def test_diamond_needs_the_atom(self):
        assert chain_truth(set(), "d", Dia(P)) is False

    def test_seriality_axiom_on_chain(self):
        assert chain_truth({"p"}, "d", Imp(Box(P), Dia(P))) is True
        assert chain_truth(set(), "d4", Imp(Box(P), Dia(P))) is True

    def test_nested_modalities_collapse(self):
        assert chain_truth({"p"}, "d", Box(Dia(Box(P)))) is True
        assert chain_truth(set(), "d4", Dia(Dia(P))) is False

    def test_any_nesting_depth(self):
        deep = P
        for _ in range(100_000):
            deep = Box(deep)
        assert chain_truth({"p"}, "d", deep) is True
        assert chain_truth(set(), "d4", Dia(deep)) is False

    def test_only_serial_logics(self):
        with pytest.raises(ValueError):
            chain_truth({"p"}, "k", P)


class TestValidateEvaluation:
    def test_single_child_step(self):
        rho = Evaluation({(): (), ("x",): (0,)})
        assert validate_evaluation(rho, M2D, "d") is True
        assert validate_evaluation(rho, M2, "t") is True

    def test_reflexive_step_allowed_for_t(self):
        rho = Evaluation({(): (), ("x",): ()})
        assert validate_evaluation(rho, M2, "t") is True
        assert validate_evaluation(Evaluation(rho.entries, True), M2, "k") is False

    def test_two_level_jump_rejected_for_k(self):
        m = model({(), (0,), (0, 0)})
        rho = Evaluation({(): (), ("x",): (0, 0)}, partial_allowed=True)
        assert validate_evaluation(rho, m, "k") is False
        rho4 = Evaluation({(): (), ("x",): (0, 0)}, partial_allowed=True)
        assert validate_evaluation(rho4, m, "k4") is True

    def test_partial_flag_must_match_logic(self):
        total = Evaluation({(): ()})
        assert validate_evaluation(total, M2, "k") is False
        assert validate_evaluation(Evaluation({(): ()}, True), M2D, "d") is False

    def test_domain_must_be_prefix_closed(self):
        rho = Evaluation({("x",): (0,)}, partial_allowed=True)
        assert validate_evaluation(rho, M2, "k") is False

    def test_values_must_lie_in_structure(self):
        rho = Evaluation({(): (), ("x",): (7,)})
        assert validate_evaluation(rho, M2D, "d") is False

    def test_chain_world_is_a_fine_value(self):
        leafy = model({()}, serial=True)
        rho = Evaluation({(): (), ("x",): (0,)})
        assert validate_evaluation(rho, leafy, "d") is True


class TestSat:
    def test_composes_holds_with_the_evaluation(self):
        rho = Evaluation({(): (), ("x",): (0,)})
        assert sat(M2, "t", rho, PFormula(P, ("x",))) is True
        assert sat(M2, "t", rho, PFormula(P, ())) is False

    def test_total_reading_requires_the_position(self):
        rho = Evaluation({(): ()})
        with pytest.raises(UndefinedPosition):
            sat(M2, "t", rho, PFormula(P, ("x",)))

    def test_existence_content_rejected_by_total_reading(self):
        with pytest.raises(TypeError):
            sat(M2, "t", Evaluation({(): ()}), EFormula(()))

    def test_undefined_position_splits_the_two_partial_readings(self):
        rho = Evaluation({(): ()}, partial_allowed=True)
        pf = PFormula(P, ("x",))
        assert sat_right(M2, "k", rho, pf) is True
        assert sat_left(M2, "k", rho, pf) is False

    def test_existence_is_definedness_on_the_left(self):
        rho = Evaluation({(): ()}, partial_allowed=True)
        assert sat_left(M2, "k", rho, EFormula(())) is True
        assert sat_left(M2, "k", rho, EFormula(("x",))) is False

    def test_defined_position_evaluates_normally(self):
        rho = Evaluation({(): (), ("x",): (0,)}, partial_allowed=True)
        assert sat_left(M2, "k", rho, PFormula(P, ("x",))) is True
        assert sat_right(M2, "k", rho, PFormula(neg(P), ("x",))) is False


class TestNodeSubtract:
    def test_strips_the_prefix(self):
        assert node_subtract((0, 1), (0,)) == (1,)

    def test_self_minus_self_is_root(self):
        assert node_subtract((3, 1), (3, 1)) == ()

    def test_non_prefix_raises(self):
        with pytest.raises(NotAPrefix):
            node_subtract((0,), (1,))

    def test_inverse_of_concat(self):
        worlds = [(), (0,), (1, 0), (0, 1, 2)]
        for u, t in itertools.product(worlds, repeat=2):
            assert node_subtract(concat(u, t), u) == t
        for u, v in itertools.product(worlds, repeat=2):
            if v[: len(u)] == u:
                assert concat(u, node_subtract(v, u)) == v


class TestEnumerateModels:
    def test_smallest_bounds_count(self):
        assert sum(1 for _ in enumerate_models(Bounds(1, 1, 1), "k")) == 6

    def test_midsize_bounds_count(self):
        assert sum(1 for _ in enumerate_models(Bounds(2, 2, 1), "k")) == 722

    def test_large_bounds_count_by_shape_sum(self):
        shapes = _canonical_shapes(3, 2)
        assert len(shapes) == 676
        assert sum(2 ** len(nodes) for nodes, _ in shapes) == 1045458

    def test_models_are_distinct_and_valid(self):
        seen = set()
        for m in enumerate_models(Bounds(2, 2, 1), "k"):
            assert validate_model(m, "k")
            key = (m.nodes, frozenset(m.valuation.items()), m.serial_completion)
            assert key not in seen
            seen.add(key)

    def test_serial_logic_models_carry_completion(self):
        for m in enumerate_models(Bounds(1, 1, 1), "d"):
            assert m.serial_completion
            assert validate_model(m, "d")

    def test_bounds_respected(self):
        for m in enumerate_models(Bounds(2, 2, 1), "k"):
            for n in m.nodes:
                assert len(n) <= 2
                assert all(i < 2 for i in n)

    def test_order_is_deterministic(self):
        first = [
            (m.nodes, frozenset(m.valuation.items()))
            for m in enumerate_models(Bounds(2, 2, 1), "t")
        ]
        second = [
            (m.nodes, frozenset(m.valuation.items()))
            for m in enumerate_models(Bounds(2, 2, 1), "t")
        ]
        assert first == second

    def test_atom_supply_names(self):
        assert atom_names(2) == ("p", "q")
        for m in enumerate_models(Bounds(1, 1, 2), "k"):
            for atoms in m.valuation.values():
                assert atoms <= {"p", "q"}


class TestBounds:
    @pytest.mark.parametrize("args, field", [
        ((2.5, 2, 1), "max_depth"),
        ((2.0, 2, 1), "max_depth"),
        ((2, "2", 1), "max_branching"),
        ((2, 2, True), "num_atoms"),
    ])
    def test_a_field_that_is_not_an_int_is_named(self, args, field):
        with pytest.raises(TypeError, match=f"^{field} must be an int"):
            Bounds(*args)

    @pytest.mark.parametrize("args", [(-1, 2, 1), (2, 0, 1), (2, 2, 0)])
    def test_out_of_range_fields_are_value_errors(self, args):
        with pytest.raises(ValueError):
            Bounds(*args)



def _tree_code(nodes) -> str:
    """A rooted tree's code, independent of the engine's: each world is its
    children's codes, sorted and parenthesized, read off the node set."""
    nodes = set(nodes)

    def code(w):
        kids = sorted(code(c) for c in nodes if c[:-1] == w and len(c) == len(w) + 1)
        return "(" + "".join(kids) + ")"

    return code(())


class TestClassShapes:
    def test_class_counts(self):
        assert len(_class_shapes(3, 2)) == 66
        assert len(_class_shapes(2, 2)) == 10

    @pytest.mark.parametrize("bounds", [(3, 2), (2, 2), (2, 3), (1, 3), (0, 1)])
    def test_one_first_shape_per_class(self, bounds):
        shapes = _canonical_shapes(*bounds)
        reps = _class_shapes(*bounds)
        codes = [_tree_code(nodes) for nodes, _ in reps]
        assert len(set(codes)) == len(reps)
        index = [shapes.index(rep) for rep in reps]
        assert index == sorted(index)
        for k, (nodes, _) in enumerate(shapes):
            code = _tree_code(nodes)
            matches = [i for i, c in zip(index, codes) if c == code]
            assert len(matches) == 1
            assert matches[0] <= k

class TestEnumerateEvaluations:
    POSITIONS = [(), ("x",)]

    def test_partial_logic_count_includes_empty(self):
        evs = list(enumerate_evaluations(M2, self.POSITIONS, "k"))
        assert [e.entries for e in evs] == [
            {},
            {(): ()},
            {(): (), ("x",): (0,)},
        ]
        assert all(e.partial_allowed for e in evs)

    def test_total_logic_count(self):
        evs = list(enumerate_evaluations(M2D, self.POSITIONS, "d"))
        assert [e.entries for e in evs] == [{(): (), ("x",): (0,)}]
        assert not evs[0].partial_allowed

    def test_reflexive_logic_gets_both_targets(self):
        evs = list(enumerate_evaluations(M2, self.POSITIONS, "t"))
        assert [e.entries[("x",)] for e in evs] == [(), (0,)]

    def test_everything_validates(self):
        for logic in ALL_LOGICS:
            m = M2D if logic in ("d", "d4") else M2
            for rho in enumerate_evaluations(m, self.POSITIONS, logic):
                assert validate_evaluation(rho, m, logic)

    def test_chain_worlds_reachable_for_serial_logics(self):
        leafy = model({()}, serial=True)
        evs = list(enumerate_evaluations(leafy, self.POSITIONS, "d"))
        assert [e.entries for e in evs] == [{(): (), ("x",): (0,)}]

    def test_total_logics_cover_every_position(self):
        for logic in TOTAL_LOGICS:
            m = M2D if logic in ("d", "d4") else M2
            for rho in enumerate_evaluations(m, self.POSITIONS, logic):
                assert set(rho.entries) == set(self.POSITIONS)

    def test_non_prefix_closed_positions_rejected(self):
        with pytest.raises(ValueError):
            list(enumerate_evaluations(M2, [("x",)], "k"))


class TestProbes:
    def test_unboxing_fails_in_the_base_logic(self):
        target = PFormula(Imp(Box(P), P), ())
        assert consequence_probe([], target, "k", Bounds(2, 2, 1)) is False
        witness = find_countermodel([], target, "k", Bounds(2, 2, 1))
        assert witness is not None
        m, rho = witness
        assert validate_model(m, "k") and validate_evaluation(rho, m, "k")
        assert sat_right(m, "k", rho, target) is False

    def test_unboxing_validated_by_reflexivity(self):
        target = PFormula(Imp(Box(P), P), ())
        assert consequence_probe([], target, "t", Bounds(2, 2, 1)) is True

    def test_box_idempotence_fails_without_transitivity(self):
        target = PFormula(Imp(Box(P), Box(Box(P))), ())
        assert consequence_probe([], target, "t", Bounds(2, 2, 1)) is False
        assert consequence_probe([], target, "s4", Bounds(2, 2, 1)) is True

    def test_assumption_entails_itself(self):
        pf = PFormula(P, ())
        for logic in ALL_LOGICS:
            assert consequence_probe([pf], pf, logic, Bounds(1, 1, 1)) is True

    def test_partial_logic_countermodel_through_definedness(self):
        gamma = [PFormula(P, ())]
        target = PFormula(P, ("x",))
        assert consequence_probe(gamma, target, "k", Bounds(2, 2, 1)) is False
        m, rho = find_countermodel(gamma, target, "k", Bounds(2, 2, 1))
        assert rho.defined(("x",))
        assert sat_left(m, "k", rho, gamma[0])
        assert not sat_right(m, "k", rho, target)

    def test_partial_logic_boxed_assumption_entails_children(self):
        gamma = [PFormula(Box(P), ()), EFormula(("x",))]
        target = PFormula(P, ("x",))
        assert consequence_probe(gamma, target, "k", Bounds(2, 2, 1)) is True

    def test_derivation_probe_on_builtin(self):
        d, system = builtin("d", "d")
        assert soundness_probe(d, system, Bounds(2, 2, 1)) is True

    def test_probe_refuses_unchecked_derivations(self):
        d, _ = builtin("t", "t")
        with pytest.raises(ValueError):
            soundness_probe(d, System("k", "classical"), Bounds(1, 1, 1))

    def test_deep_formulas_probe_in_every_logic(self):
        deep = P
        for _ in range(3000):
            deep = Box(deep)
        valid, refutable = PFormula(Imp(deep, deep), ()), PFormula(neg(deep), ())
        b = Bounds(1, 1, 1)
        for logic in ALL_LOGICS:
            assert consequence_probe([], valid, logic, b) is True
            refuted = find_countermodel([], refutable, logic, b)
            assert refuted is not None and refuted[0].nodes == {()}

    def test_existence_assumptions_only_in_partial_logics(self):
        gamma = [EFormula(("x",))]
        for logic in ("d", "t", "d4", "s4"):
            with pytest.raises(TypeError):
                consequence_probe(gamma, PFormula(P, ()), logic, Bounds(1, 1, 1))

    def test_non_root_target_uses_the_general_path(self):
        target = PFormula(P, ("x",))
        assert consequence_probe([], target, "t", Bounds(1, 1, 1)) is False


class TestTruthTableAgreement:
    def ref_eval(self, f, atoms):
        if isinstance(f, Atom):
            return f.name in atoms
        if isinstance(f, Bottom):
            return False
        if isinstance(f, And):
            return self.ref_eval(f.left, atoms) and self.ref_eval(f.right, atoms)
        if isinstance(f, Or):
            return self.ref_eval(f.left, atoms) or self.ref_eval(f.right, atoms)
        if isinstance(f, Imp):
            return (not self.ref_eval(f.left, atoms)) or self.ref_eval(f.right, atoms)
        raise TypeError(f)

    def modal_free(self, depth, leaves):
        if depth == 0:
            return list(leaves)
        smaller = self.modal_free(depth - 1, leaves)
        out = list(smaller)
        for a, b in itertools.product(smaller, repeat=2):
            out.extend([And(a, b), Or(a, b), Imp(a, b)])
        return out

    def test_agreement_on_small_models(self):
        formulas = self.modal_free(2, [P, Bottom()])
        for m in enumerate_models(Bounds(1, 1, 1), "k"):
            for world in m.nodes:
                atoms = m.atoms_at(world)
                for f in formulas:
                    assert holds(m, "k", world, f) == self.ref_eval(f, atoms)

    def test_agreement_on_wider_models(self):
        formulas = self.modal_free(1, [P, Bottom()])
        for m in enumerate_models(Bounds(2, 2, 1), "s4"):
            for world in m.nodes:
                atoms = m.atoms_at(world)
                for f in formulas:
                    assert holds(m, "s4", world, f) == self.ref_eval(f, atoms)


class TestExtensionLemmas:
    FORMULAS = [P, Bottom(), neg(P), Box(P), Dia(P), Imp(Box(P), P)]

    def test_box_matches_universal_one_point_extensions(self):
        positions = [(), ("x",)]
        for logic in ALL_LOGICS:
            for m in enumerate_models(Bounds(1, 1, 1), logic):
                for rho in enumerate_evaluations(m, positions, logic):
                    for alpha in list(rho.entries):
                        world = rho.entries[alpha]
                        targets = ref_targets(m, logic, world)
                        for f in self.FORMULAS:
                            boxed = holds(m, logic, world, Box(f))
                            forall = all(holds(m, logic, t, f) for t in targets)
                            assert boxed == forall, (logic, m, alpha, f)
                            dia = holds(m, logic, world, Dia(f))
                            exists = any(holds(m, logic, t, f) for t in targets)
                            assert dia == exists, (logic, m, alpha, f)

    def test_long_step_collapses_to_single_token(self):
        positions = init_set([("x", "y")])
        for logic in TOTAL_LOGICS:
            for m in enumerate_models(Bounds(2, 1, 1), logic):
                for rho in enumerate_evaluations(m, positions, logic):
                    pairs = [((), ("x", "y")), ((), ("x",)), (("x",), ("x", "y"))]
                    for alpha, alphabeta in pairs:
                        va = rho.entries[alpha]
                        vb = rho.entries[alphabeta]
                        shortcut = concat(va, node_subtract(vb, va))
                        fresh = alpha + ("z",)
                        extended = Evaluation(
                            {**rho.entries, fresh: shortcut},
                            partial_allowed=rho.partial_allowed,
                        )
                        for f in self.FORMULAS:
                            long_way = sat(m, logic, rho, PFormula(f, alphabeta))
                            short_way = sat(m, logic, extended, PFormula(f, fresh))
                            assert long_way == short_way


class TestExistenceElimination:
    """Adding a fresh existence assumption cannot strengthen a boxed goal."""

    def entails(self, m, gamma, target, logic, positions):
        for rho in enumerate_evaluations(m, positions, logic):
            if all(sat_left(m, logic, rho, c) for c in gamma):
                if not sat_right(m, logic, rho, target):
                    return False
        return True

    @pytest.mark.parametrize(
        "gamma",
        [
            [],
            [PFormula(P, ())],
            [PFormula(Dia(P), ())],
            [PFormula(Box(P), ())],
            [PFormula(P, ("x",))],
            [PFormula(Box(P), ()), PFormula(P, ())],
        ],
    )
    def test_fresh_existence_discharge(self, gamma):
        target = PFormula(Box(P), ())
        fresh = ("y",)
        assert fresh not in init_set([c.position for c in gamma])
        positions = sorted(
            init_set([c.position for c in gamma] + [(), fresh]),
            key=lambda p: (len(p), p),
        )
        for logic in PARTIAL:
            for m in enumerate_models(Bounds(2, 2, 1), logic):
                with_e = self.entails(
                    m, list(gamma) + [EFormula(fresh)], target, logic, positions
                )
                without = self.entails(m, gamma, target, logic, positions)
                if with_e:
                    assert without, (logic, m)


class TestModelFiles:
    def test_round_trip_plain(self):
        text = print_model(M2, "k")
        logic, m = parse_model(text)
        assert logic == "k" and m == M2

    def test_round_trip_serial(self):
        text = print_model(M2D, "d")
        assert ":serial-completion true" in text
        logic, m = parse_model(text)
        assert logic == "d" and m == M2D

    def test_round_trip_enumerated_sample(self):
        for logic in ("k", "d"):
            for i, m in enumerate(enumerate_models(Bounds(2, 2, 1), logic)):
                if i % 97 == 0:
                    assert parse_model(print_model(m, logic)) == (logic, m)

    def test_output_is_stable(self):
        assert print_model(M2D, "d") == (
            "(model :logic d\n"
            "  (node () :atoms ())\n"
            "  (node (0) :atoms (p))\n"
            "  :serial-completion true)\n"
        )

    def test_parse_rejects_garbage(self):
        with pytest.raises(ParseError):
            parse_model("(tree)")
        with pytest.raises(ParseError):
            parse_model("(model :logic zz (node () :atoms ()))")
        with pytest.raises(ParseError):
            parse_model("(model :logic k (node () :atoms ()) (node () :atoms ()))")
        with pytest.raises(ParseError):
            parse_model("(model :logic k (node (x) :atoms ()))")
        with pytest.raises(ParseError):
            parse_model("(model :logic k (node () :atoms (0)))")

    def test_parse_error_carries_location(self):
        try:
            parse_model("(model :logic k\n  (widget))")
        except ParseError as e:
            assert e.line == 2
        else:
            pytest.fail("expected a parse error")
