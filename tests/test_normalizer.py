"""Detour-removal tests: segments, ranks, contractions, normalization, spines."""

import random

import pytest

import posnd.kernel as K
import posnd.normalizer as N
from posnd.syntax import Atom, And, Or, Imp, Box, Dia, Bottom

from proofgen import random_derivation

p, q = Atom("p"), Atom("q")
S4i = K.System("s4", "intuitionistic")
Ki = K.System("k", "intuitionistic")

INTUITIONISTIC = [
    K.System(logic, "intuitionistic") for logic in ("k", "d", "t", "k4", "d4", "s4")
]


# --- fixtures --------------------------------------------------------------


def fix_and1():
    return K.and_e1(K.and_i(K.hyp("u", p, ()), K.hyp("v", q, ())))


def fix_and2():
    return K.and_e2(K.and_i(K.hyp("u", p, ()), K.hyp("v", q, ())))


def fix_or1():
    return K.or_e(
        K.or_i1(q, K.hyp("u", p, ())),
        frozenset({"a"}), K.hyp("a", p, ()),
        frozenset({"b"}), K.hyp("w", p, ()),
    )


def fix_or2():
    return K.or_e(
        K.or_i2(q, K.hyp("u", p, ())),
        frozenset({"a"}), K.hyp("w", p, ()),
        frozenset({"b"}), K.hyp("b", p, ()),
    )


def fix_imp():
    return K.imp_e(
        K.imp_i(frozenset({"a"}), K.hyp("a", p, ())), K.hyp("u", p, ())
    )


def fix_commut_or():
    return K.and_e1(K.or_e(
        K.hyp("m", Or(p, q), ()),
        frozenset({"a"}), K.and_i(K.hyp("a", p, ()), K.hyp("v", q, ())),
        frozenset({"b"}), K.and_i(K.hyp("w", p, ()), K.hyp("b", q, ())),
    ))


def fix_commut_dia():
    return K.and_e1(K.dia_e(
        K.hyp("m", Dia(p), ()), "x", frozenset({"a"}), frozenset(),
        K.and_i(K.hyp("w1", q, ()), K.hyp("w2", q, ())),
    ))


def fix_total_box():
    return K.box_e(
        K.box_i("x", frozenset(), K.box_e(K.hyp("u", Box(p), ()), ("x",))),
        ("y",),
    )


def fix_total_dia():
    return K.dia_e(
        K.dia_i(("z",), K.hyp("u", p, ("z",))),
        "x", frozenset({"a"}), frozenset(),
        K.dia_i(("x",), K.hyp("a", p, ("x",))),
    )


def fix_partial_box():
    return K.box_e(
        K.box_i("x", frozenset({"e"}),
                K.box_e(K.hyp("u", Box(p), ()), ("x",), K.ehyp("e", ("x",)))),
        ("y",), K.ehyp("e2", ("y",)),
    )


def fix_partial_dia():
    return K.dia_e(
        K.dia_i(("z",), K.hyp("u", p, ("z",)), K.ehyp("d1", ("z",))),
        "x", frozenset({"a"}), frozenset({"e"}),
        K.dia_i(("x",), K.hyp("a", p, ("x",)), K.ehyp("e", ("x",))),
    )


def fix_stacked():
    return K.imp_e(
        K.and_e1(K.and_i(
            K.imp_i(frozenset({"a"}), K.hyp("a", p, ())), K.hyp("v", q, ())
        )),
        K.hyp("u", p, ()),
    )


def fix_cutfree_commutable():
    return K.and_e1(K.or_e(
        K.hyp("m", Or(And(p, q), And(p, q)), ()),
        frozenset({"a"}), K.hyp("a", And(p, q), ()),
        frozenset({"b"}), K.hyp("b", And(p, q), ()),
    ))


FIXTURES = [
    ("and-e1", fix_and1, S4i, [(1, 1), (0, 0)]),
    ("and-e2", fix_and2, S4i, [(1, 1), (0, 0)]),
    ("or-i1", fix_or1, S4i, [(1, 1), (0, 0)]),
    ("or-i2", fix_or2, S4i, [(1, 1), (0, 0)]),
    ("imp", fix_imp, S4i, [(1, 1), (0, 0)]),
    ("commut-or", fix_commut_or, S4i, [(1, 4), (1, 1), (0, 0)]),
    ("commut-dia", fix_commut_dia, S4i, [(1, 2), (0, 0)]),
    ("total-box", fix_total_box, S4i, [(1, 1), (0, 0)]),
    ("total-dia", fix_total_dia, S4i, [(1, 1), (0, 0)]),
    ("partial-box", fix_partial_box, Ki, [(1, 1), (0, 0)]),
    ("partial-dia", fix_partial_dia, Ki, [(1, 1), (0, 0)]),
    ("stacked", fix_stacked, S4i, [(2, 1), (1, 1), (0, 0)]),
    ("cutfree-commutable", fix_cutfree_commutable, S4i, [(0, 0)]),
]


def random_corpus(seed, per_system=8, steps=10):
    rng = random.Random(seed)
    out = []
    for system in INTUITIONISTIC:
        for _ in range(per_system):
            out.append((random_derivation(rng, system, steps=steps), system))
    return out


# --- segments --------------------------------------------------------------


class TestSegments:
    def test_single_minor_chain_has_length_two(self):
        d = K.dia_e(K.hyp("m", Dia(p), ()), "x", frozenset({"a"}), frozenset(),
                    K.hyp("w", q, ()))
        long = [s for s in N.segments(d) if len(s) > 1]
        assert [s.occurrences for s in long] == [((1,), ())]

    def test_nested_chain_has_length_three(self):
        d = K.dia_e(
            K.hyp("mo", Dia(p), ()), "x", frozenset({"ao"}), frozenset(),
            K.dia_e(K.hyp("mi", Dia(q), ()), "y", frozenset({"ai"}), frozenset(),
                    K.hyp("w", p, ())),
        )
        assert K.check(d, S4i).ok
        long = [s for s in N.segments(d) if len(s) > 2]
        assert [s.occurrences for s in long] == [((1, 1), (1,), ())]

    def test_chain_conclusions_agree_and_clauses_hold(self):
        for d, system in random_corpus(977, per_system=5):
            idx = {}
            stack = [((), d)]
            while stack:
                path, n = stack.pop()
                idx[path] = n
                for i, pr in enumerate(n.premises):
                    stack.append((path + (i,), pr))

            def is_minor_root(path):
                return bool(path) and path[-1] in K._RULE_TABLE[idx[path[:-1]].rule].minors

            for seg in N.segments(d):
                first, last = seg.start, seg.end
                assert idx[first].rule not in ("or-e", "dia-e")
                assert not is_minor_root(last)
                for a, b in zip(seg.occurrences, seg.occurrences[1:]):
                    assert b == a[:-1] and is_minor_root(a)
                    assert idx[a].conclusion == idx[b].conclusion

    def test_coverage_and_join_free_partition(self):
        for d, system in random_corpus(978, per_system=5):
            paths = set()
            stack = [((), d)]
            while stack:
                path, n = stack.pop()
                paths.add(path)
                for i, pr in enumerate(n.premises):
                    stack.append((path + (i,), pr))
            segs = N.segments(d)
            covered = set()
            for s in segs:
                covered.update(s.occurrences)
            assert covered == paths
            if not any(n.rule in ("or-e", "dia-e") for n in d):
                assert all(len(s) == 1 for s in segs)
                assert sum(len(s) for s in segs) == len(paths)

    def test_join_conclusion_lies_on_one_chain_per_minor(self):
        # The exact-partition reading fails at a case split: its conclusion
        # occurrence is shared by the chain through each minor premise.
        d = fix_commut_or()
        holding = [s for s in N.segments(d) if (0,) in s.occurrences]
        assert len(holding) == 2


# --- cuts and rank ---------------------------------------------------------


class TestCutsAndRank:
    def test_simple_redexes_have_rank_one_one(self):
        assert N.rank(fix_and1()) == (1, 1)
        assert N.rank(fix_total_box()) == (1, 1)

    def test_cut_free_axiom_has_rank_zero(self):
        d, system = K.builtin("t", "t")
        assert N.cuts(d) == ()
        assert N.rank(d) == (0, 0)

    def test_commutative_fixture_counts_both_chains(self):
        assert N.rank(fix_commut_or()) == (1, 4)

    def test_stacked_reports_highest_degree(self):
        d = fix_stacked()
        assert N.rank(d) == (2, 1)
        (c,) = N.cuts(d)
        assert c.connective == "and" and c.degree == 2

    def test_cut_records_connective(self):
        (c,) = N.cuts(fix_imp())
        assert c.connective == "imp"
        assert c.segment.occurrences == ((0,),)


# --- proper contractions ---------------------------------------------------


class TestContractProper:
    @pytest.mark.parametrize(
        "name,build,system",
        [(n, b, s) for n, b, s, _ in FIXTURES
         if n in ("and-e1", "and-e2", "or-i1", "or-i2", "imp",
                  "total-box", "total-dia", "partial-box", "partial-dia")],
        ids=lambda v: v if isinstance(v, str) else "",
    )
    def test_single_step_redexes(self, name, build, system):
        d = build()
        (cut,) = N.cuts(d)
        out = N.contract_proper(d, cut, system)
        assert out.conclusion == d.conclusion
        assert K.check(out, system).ok
        assert N.is_normal(out)

    def test_box_contraction_result_shape(self):
        d = fix_total_box()
        (cut,) = N.cuts(d)
        out = N.contract_proper(d, cut, S4i)
        assert out.rule == "box-e" and out.beta == ("y",)
        assert out.premises[0].rule == "hyp"
        assert out.conclusion.formula == p and out.conclusion.position == ("y",)

    def test_partial_box_opens(self):
        d = fix_partial_box()
        (cut,) = N.cuts(d)
        out = N.contract_proper(d, cut, Ki)
        rep = K.check(out, Ki)
        opens = sorted(
            (a.label, K._content_str(a.content)) for a in rep.open_assumptions
        )
        assert opens == [("e2", "E(y)"), ("u", "(box p)^()")]

    def test_partial_dia_rebuilds_existence_premise(self):
        d = fix_partial_dia()
        (cut,) = N.cuts(d)
        out = N.contract_proper(d, cut, Ki)
        assert out.rule == "dia-i"
        labels = sorted(a.label for a in K.check(out, Ki).open_assumptions)
        assert labels == ["d1", "u"]

    def test_long_segment_is_not_a_redex(self):
        d = fix_commut_or()
        cut = N.cuts(d)[0]
        with pytest.raises(N.NotARedex):
            N.contract_proper(d, cut, S4i)

    def test_non_redex_pair_rejected(self):
        d = K.and_e1(K.hyp("u", And(p, q), ()))
        fake = N.Cut(N.Segment(((0,),)), "and", 1)
        with pytest.raises(N.NotARedex):
            N.contract_proper(d, fake, S4i)

    def test_occurrence_under_a_leaf_is_not_a_redex(self):
        d = K.imp_e(K.hyp("f", Imp(p, q), ()), K.hyp("u", p, ()))
        fake = N.Cut(N.Segment(((0, 0),)), "imp", 2)
        with pytest.raises(N.NotARedex):
            N.contract_proper(d, fake, S4i)

    def test_negative_address_is_not_a_redex(self):
        d = K.and_i(K.hyp("w", q, ()), fix_imp())
        (cut,) = N.cuts(d)
        assert cut.segment.occurrences == ((1, 0),)
        with pytest.raises(IndexError):
            N.subtree_at(d, (-1,))
        fake = N.Cut(N.Segment(((-1, 0),)), "imp", 2)
        with pytest.raises(N.NotARedex):
            N.contract_proper(d, fake, S4i)

    def test_requires_checking_derivation(self):
        bad = K.box_e(K.box_i("x", frozenset(), K.hyp("u", p, ("x",))), ("y", "z"))
        (cut,) = N.cuts(bad)
        assert not K.check(bad, Ki).ok
        with pytest.raises(ValueError):
            N.contract_proper(bad, cut, Ki)

    def test_duplicating_argument_multiplies_opens(self):
        body = K.and_i(K.hyp("a", p, ()), K.hyp("a", p, ()))
        d = K.imp_e(K.imp_i(frozenset({"a"}), body), K.hyp("u", p, ()))
        (cut,) = N.cuts(d)
        out = N.contract_proper(d, cut, S4i)
        rep = K.check(out, S4i)
        assert [a.label for a in rep.open_assumptions] == ["u", "u"]


# --- commutative contractions ----------------------------------------------


class TestContractCommutative:
    def test_elim_pushed_into_dia_minor(self):
        d = fix_commut_dia()
        out = N.contract_commutative(d, (), S4i)
        assert out.rule == "dia-e"
        minor = out.premises[1]
        assert minor.rule == "and-e1" and minor.premises[0].rule == "and-i"
        assert out.conclusion == d.conclusion
        assert K.check(out, S4i).ok

    def test_argument_duplicated_per_minor(self):
        d = K.imp_e(
            K.or_e(
                K.hyp("m", Or(Imp(p, q), Imp(p, q)), ()),
                frozenset({"a"}), K.hyp("a", Imp(p, q), ()),
                frozenset({"b"}), K.hyp("b", Imp(p, q), ()),
            ),
            K.hyp("u", p, ()),
        )
        assert K.check(d, S4i).ok
        out = N.contract_commutative(d, (), S4i)
        assert out.rule == "or-e"
        labels = [a.label for a in K.check(out, S4i).open_assumptions]
        assert labels.count("u") == 2 and out.conclusion == d.conclusion

    def test_each_application_shrinks_long_segment_by_one(self):
        inner = K.dia_e(
            K.hyp("mi", Dia(q), ()), "y", frozenset({"ai"}), frozenset(),
            K.and_i(K.hyp("w1", p, ()), K.hyp("w2", q, ())),
        )
        d = K.and_e1(K.dia_e(
            K.hyp("mo", Dia(p), ()), "x", frozenset({"ao"}), frozenset(), inner
        ))
        assert K.check(d, S4i).ok
        lengths = [max(len(c.segment) for c in N.cuts(d))]
        cur = d
        for _ in range(2):
            ix = K._preorder(cur)
            end = N._occurrences(N._select(N._cuts(ix), ix), ix)[-1]
            cur = N.contract_commutative(cur, end[:-1], S4i)
            lengths.append(max(len(c.segment) for c in N.cuts(cur)))
        assert lengths == [3, 2, 1]

    def test_not_applicable_on_plain_major(self):
        d = K.and_e1(K.hyp("u", And(p, q), ()))
        with pytest.raises(N.NotApplicable):
            N.contract_commutative(d, (), S4i)

    def test_not_applicable_on_non_elimination(self):
        d = K.hyp("u", p, ())
        with pytest.raises(N.NotApplicable):
            N.contract_commutative(d, (), S4i)

    def test_not_applicable_at_a_negative_address(self):
        split = K.or_e(
            K.hyp("m", Or(Imp(p, q), Imp(p, q)), ()),
            frozenset({"a"}), K.hyp("a", Imp(p, q), ()),
            frozenset({"b"}), K.hyp("b", Imp(p, q), ()),
        )
        d = K.and_i(K.hyp("w", p, ()), K.imp_e(split, K.hyp("u", p, ())))
        assert K.check(d, S4i).ok
        assert N.contract_commutative(d, (1,), S4i).rule == "and-i"
        with pytest.raises(N.NotApplicable):
            N.contract_commutative(d, (-1,), S4i)


# --- normalize -------------------------------------------------------------


class TestNormalize:
    @pytest.mark.parametrize(
        "name,build,system,expected",
        FIXTURES,
        ids=[f[0] for f in FIXTURES],
    )
    def test_fixture_traces(self, name, build, system, expected):
        d = build()
        assert K.check(d, system).ok, name
        out, trace = N.normalize(d, system)
        assert trace == expected
        assert all(b < a for a, b in zip(trace, trace[1:]))
        assert N.is_normal(out)
        assert K.check(out, system).ok
        assert K.check_position_condition(out) == ()
        assert out.conclusion == d.conclusion

    def test_cutfree_commutable_still_normalizes(self):
        d = fix_cutfree_commutable()
        out, trace = N.normalize(d, S4i)
        assert trace == [(0, 0)]
        assert out.rule == "or-e"
        assert N.is_normal(out)

    def test_classical_flavor_rejected(self):
        d, system = K.builtin("k", "k")
        assert system.flavor == "classical"
        with pytest.raises(N.FlavorUnsupported):
            N.normalize(d, system)

    def test_non_checking_input_rejected(self):
        bad = K.box_e(K.hyp("u", Box(p), ()), ("x", "y"))
        with pytest.raises(ValueError):
            N.normalize(bad, Ki)

    def test_step_log_paths_and_kinds(self):
        d = fix_commut_or()
        out, trace, steps = N.normalize_steps(d, S4i)
        kinds = [(r, k) for r, k, _, _ in steps]
        assert kinds == [(1, "commutative"), (1, "proper"), (2, "proper")]
        assert steps[0][2] == ()
        assert trace == [(1, 4), (1, 1), (0, 0)]

    def test_random_derivations_normalize(self):
        for d, system in random_corpus(979, per_system=6, steps=12):
            out, trace = N.normalize(d, system)
            assert trace[0] == N.rank(K.freshen(d))
            assert trace[-1] == (0, 0)
            assert all(b < a for a, b in zip(trace, trace[1:]))
            assert N.is_normal(out)
            rep = K.check(out, system)
            assert rep.ok
            assert K.check_position_condition(out) == ()
            assert out.conclusion == d.conclusion

    def test_open_assumption_contents_never_shrink(self):
        # Contractions may duplicate open assumptions but never invent new
        # content: every open content of the output is one of the input's.
        for d, system in random_corpus(980, per_system=4):
            before = {
                (a.label, K._content_str(a.content))
                for a in K.check(d, system).open_assumptions
            }
            out, _ = N.normalize(d, system)
            after = {K._content_str(a.content)
                     for a in K.check(out, system).open_assumptions}
            assert after <= {c for _, c in before}


class TestReduceOnce:
    def test_agrees_with_is_normal(self):
        for d, system in random_corpus(981, per_system=4):
            step = N.reduce_once(d, system)
            assert (step is None) == N.is_normal(d)

    def test_iterates_to_normal_form(self):
        d = fix_stacked()
        count = 0
        cur = d
        while True:
            nxt = N.reduce_once(cur, S4i)
            if nxt is None:
                break
            cur = nxt
            count += 1
            assert count < 50
        assert N.is_normal(cur)
        assert cur.conclusion == d.conclusion
        assert count == 2

    def test_commutes_first_on_long_segments(self):
        d = fix_commut_dia()
        one = N.reduce_once(d, S4i)
        assert one is not None and one.rule == "dia-e"
        assert N.rank(one) == (1, 1)

    def test_cut_free_commutation_step(self):
        d = fix_cutfree_commutable()
        one = N.reduce_once(d, S4i)
        assert one is not None and one.rule == "or-e"
        assert N.reduce_once(one, S4i) is None

    def test_is_the_first_step_of_normalization(self):
        # Two cut-free splits: ``S`` at (0,) and ``S'`` at (1, 0, 0), deeper
        # but later in post-order.  Both commute the first split in
        # post-order.
        def split(m):
            pq = And(p, q)
            return K.and_e1(K.or_e(
                K.hyp(m, Or(p, q), ()),
                frozenset({"a"}), K.hyp("s", pq, ()),
                frozenset({"b"}), K.hyp("t", pq, ()),
            ))

        d = K.and_i(
            split("m1"),
            K.and_i(K.and_i(split("m2"), K.hyp("w", p, ())), K.hyp("v", q, ())),
        )
        _, trace, steps = N.normalize_steps(d, S4i)
        assert trace == [(0, 0)]
        assert [at for _, _, at, _ in steps] == [(0,), (1, 0, 0)]
        first = N.contract_commutative(d, (0,), S4i)
        assert N.reduce_once(d, S4i) == first

    def test_flavor_guard(self):
        d, system = K.builtin("t", "t")
        with pytest.raises(N.FlavorUnsupported):
            N.reduce_once(d, system)

    def test_input_guards(self):
        # reduce_once checks its input once and then contracts without
        # checking it again; each public contraction still checks its own.
        bad_proper = K.box_e(K.box_i("x", frozenset(), K.hyp("u", p, ("x",))), ("y", "z"))
        bad_commut = K.and_e1(K.dia_e(
            K.hyp("m", Dia(p), ()), "x", frozenset({"a"}), frozenset(),
            K.and_i(K.hyp("w1", q, ("x",)), K.hyp("w2", q, ("x",))),
        ))
        for bad in (bad_proper, bad_commut):
            assert not K.check(bad, Ki).ok
            with pytest.raises(ValueError, match="reduce_once requires"):
                N.reduce_once(bad, Ki)
        (cut,) = N.cuts(bad_proper)
        with pytest.raises(ValueError, match="contract_proper requires"):
            N.contract_proper(bad_proper, cut, Ki)
        with pytest.raises(ValueError, match="contract_commutative requires"):
            N.contract_commutative(bad_commut, (), Ki)


class TestIsNormal:
    def test_plain_elimination_is_normal(self):
        assert N.is_normal(K.and_e1(K.hyp("u", And(p, q), ())))

    def test_redex_is_not_normal(self):
        assert not N.is_normal(fix_total_box())

    def test_segment_into_elimination_is_not_normal(self):
        assert not N.is_normal(fix_cutfree_commutable())


# --- spines ----------------------------------------------------------------


class TestSpines:
    def test_elimination_only_spine(self):
        d = K.and_e1(K.hyp("u", And(p, q), ()))
        s = N.spine(d)
        assert s == ((0,), ())
        elim, minimum, intro = N.spine_decompose(d)
        assert elim == s and minimum == () and intro == ()

    def test_spine_ends_in_introduction_part(self):
        d = K.imp_i(frozenset({"u"}), K.box_e(K.hyp("u", Box(p), ()), ()))
        assert K.check(d, K.System("t", "intuitionistic")).ok
        elim, minimum, intro = N.spine_decompose(d)
        assert elim == ((0, 0), (0,)) and minimum == () and intro == ((),)

    def test_absurdity_step_fills_minimum_part(self):
        d = K.bot_i(K.hyp("u", Bottom(), ()), q, ("x",))
        elim, minimum, intro = N.spine_decompose(d)
        assert elim == ((0,),) and minimum == ((),) and intro == ()

    def test_not_normal_rejected(self):
        with pytest.raises(N.NotNormal):
            N.spine_decompose(fix_total_box())

    def test_conjunction_introduction_branches(self):
        d = K.and_i(K.hyp("u", p, ()), K.hyp("v", q, ()))
        with pytest.raises(ValueError):
            N.spine(d)
        assert len(N.all_spines(d)) == 2

    def test_unique_spine_on_normalized_corpus(self):
        seen_unique = 0
        for d, system in random_corpus(982, per_system=5):
            out, _ = N.normalize(d, system)
            spines = N.all_spines(out)
            assert all(s[-1] == () for s in spines)
            if out.rule not in K.INTRO_RULES:
                assert len(spines) == 1
                assert spines[0] == N.spine(out)
                seen_unique += 1
        assert seen_unique >= 10

    def test_decomposition_order_on_normalized_corpus(self):
        checked = 0
        for d, system in random_corpus(983, per_system=5):
            out, _ = N.normalize(d, system)
            try:
                elim, minimum, intro = N.spine_decompose(out)
            except ValueError:
                continue  # branching introduction part
            s = N.spine(out)
            assert elim + minimum + intro == s
            checked += 1
        assert checked >= 15
