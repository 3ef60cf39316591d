"""The local acceptance guard of a contraction against the whole-tree check.

A contraction replaces one subtree ``old`` by ``new``.  The normalizer
accepts it by checking ``new`` alone (``normalizer._accepted``): ``new``
passes the kernel's check walk, keeps ``old``'s conclusion and opens only
assumptions open in ``old``.  It keeps a label census of the current tree
across rounds instead of collecting ``all_labels`` of the whole tree, and
looks for repeated witness tokens in ``new`` only.  It also keeps the
pre-order index and the cut list of the current tree, splicing in the index
of ``new`` only, and rebuilds the path above ``new`` keeping each node's
conclusion.

Here every contraction of the oracle corpora is also judged by the
whole-tree ``check``, which must agree with the guard; the accepted tree
must equal the one built by rebuilding every node above ``new`` with its
conclusion computed again; the census must equal the labels of the
accepted tree, the kept index ``_preorder`` of it and the kept cuts
``_cuts`` of that; the repeat test over ``new`` must agree with the one
over the whole tree.  Deliberately broken contraction cores must be
rejected by both the guard and ``check``.  A normalization of a detour or
a ``box`` chain makes exactly two whole-tree check walks and indexes the
whole tree only on entry, searches and indexes only the rewritten subtrees
otherwise, each once, builds no node above a redex with ``_mk``, and calls
no ``all_labels`` or ``rank``.  The commutations after the last cut pass
the same guard, one per logged step.
"""

from __future__ import annotations

import operator
from collections import Counter

import pytest

from posnd import kernel as K
from posnd import normalizer as N
from posnd.kernel import check, freshen
from posnd.normalizer import NormalizerError, subtree_at
from posnd.syntax import And, Atom, Bottom, Box, Imp, Or, PFormula

from test_kernel import box_chain, detour_chain
from test_preorder_oracle import chains, corpus, reference_replace_at
from test_witness_copy_oracle import deep_chains

P, Q, R = Atom("p"), Atom("q"), Atom("r")
S4I = K.System("s4", "intuitionistic")


def _repeats(tokens) -> bool:
    tokens = list(tokens)
    return len(tokens) != len(set(tokens))


def _spy_on_acceptance(monkeypatch):
    """Judge every contraction the normalizer accepts with the whole-tree
    ``check`` as well, and check what a normalization keeps against what
    it would compute afresh.  Returns the list of accepted contractions'
    kinds and the list of results a normalization accepted, each with
    whether the whole tree was freshened."""
    real = N._accepted
    seen = []
    kept_trees = []

    def spy(st, at, new, what):
        d, system = st.d, st.system
        old = subtree_at(d, at)
        out = reference_replace_at(d, at, new)
        opens = check(old, system).open_assumptions
        assert N._open_pairs(old) == {(a.label, a.content) for a in opens}
        try:
            got = real(st, at, new, what)
        except NormalizerError:
            assert not check(out, system).ok
            raise
        assert check(out, system).ok
        assert check(got, system).ok
        freshened = _repeats(N._witness_tokens(out))
        assert _repeats(N._witness_tokens(new)) == freshened
        assert (got == out) != freshened
        assert st.d is got
        assert st.census == Counter(K._label_occurrences(got))
        assert set(st.census) == K.all_labels(got)
        ix = K._preorder(got)
        assert len(st.ix[0]) == len(ix[0])
        assert all(map(operator.is_, st.ix[0], ix[0]))
        assert st.ix[1:] == ix[1:]
        assert st.cs == N._cuts(ix)
        assert st.sp == [i for i, n in enumerate(ix[0]) if N._splits(n)]
        kept_trees.append((got, freshened))
        seen.append(what)
        return got

    monkeypatch.setattr(N, "_accepted", spy)
    return seen, kept_trees


def copied_witness_mid_run():
    """``and-e1`` of ``(\\a. a & a) (box-i x. box-e u)`` with ``a, u: box p``:
    its first round plugs the ``box-i`` into both leaves bound by ``a``,
    which copies the witness ``x`` and freshens the whole tree, and its
    second round contracts the ``and-e1``."""
    bp = Box(P)
    major = K.imp_i(frozenset({"a"}), K.and_i(K.hyp("a", bp, ()), K.hyp("a", bp, ())))
    minor = K.box_i("x", frozenset(), K.box_e(K.hyp("u", bp, ()), ("x",)))
    return K.and_e1(K.imp_e(major, minor))


def side_by_side_splits():
    """Three cut-free ``and-e1`` splits under ``and-i`` nodes: each
    commutation grows the tree before the splits that follow it in
    pre-order, whose kept numbers shift."""
    pq = And(P, Q)

    def split(m):
        return K.and_e1(K.or_e(
            K.hyp(m, Or(P, Q), ()),
            frozenset({"a"}), K.hyp("s", pq, ()),
            frozenset({"b"}), K.hyp("t", pq, ()),
        ))

    return K.and_i(split("m1"), K.and_i(split("m2"), split("m3")))


def test_guard_agrees_with_the_whole_tree_check(monkeypatch):
    seen, kept_trees = _spy_on_acceptance(monkeypatch)
    rank = N.rank
    ranked = []
    monkeypatch.setattr(N, "rank", lambda t: ranked.append(t) or rank(t))
    trees = corpus() + list(chains()) + deep_chains()
    trees.append((side_by_side_splits(), S4I))
    trees.append((copied_witness_mid_run(), S4I))
    logged = 0
    for d, system in trees:
        kept_trees.clear()
        out, trace, steps = N.normalize_steps(d, system)
        # Every contraction, commutative ones and those after the last cut
        # included, logs the rank of the tree it accepted, read off the kept
        # cuts.
        assert len(steps) == len(kept_trees)
        for (_, _, _, rk), (got, _) in zip(steps, kept_trees):
            assert rk == rank(got)
        logged += len(kept_trees)
        normalized = list(kept_trees)
        N.reduce_once(d, system)
    assert ranked == []
    assert len(seen) > 1500
    assert seen.count("commutative") > 100
    assert logged > 1000
    # The last tree freshens the whole tree in its first round, and the
    # normalization goes on from an index made afresh.
    assert [freshened for _, freshened in normalized] == [True, False]


def test_the_cut_free_tail_goes_through_the_guard(monkeypatch):
    # The commutations after the last cut are accepted, one by one, like
    # those of a round: one guard per logged step, no label walk of a
    # whole tree, and whole-tree check walks only on entry and at the end.
    accepted, walked, labelled = [], [], []
    real_accepted, real_walk, real_labels = N._accepted, K._check_walk, K.all_labels

    def spy(st, at, new, what):
        accepted.append(new)
        return real_accepted(st, at, new, what)

    def counted(d, *args):
        walked.append(d)
        return real_walk(d, *args)

    corpora = corpus() + list(chains()) + deep_chains()
    monkeypatch.setattr(N, "_accepted", spy)
    for module in (K, N):
        monkeypatch.setattr(module, "_check_walk", counted)
    monkeypatch.setattr(K, "all_labels", lambda d: labelled.append(d) or real_labels(d))
    trees = tails = 0
    for d, system in corpora:
        accepted.clear()
        walked.clear()
        out, _, steps = N.normalize_steps(d, system)
        tail = sum(kind == "commutative" and rk == (0, 0) for _, kind, _, rk in steps)
        if not tail:
            continue
        trees += 1
        tails += tail
        assert len(accepted) == len(steps)
        assert walked[0] is d and walked[-1] is out
        assert len(walked) == 2 + len(accepted)
        assert all(map(operator.is_, walked[1:-1], accepted))
    assert labelled == []
    assert (trees, tails) == (9, 21)


def test_public_contractions_use_the_guard(monkeypatch):
    seen, _ = _spy_on_acceptance(monkeypatch)
    for d, system in corpus() + deep_chains():
        for cut in N.cuts(d):
            if len(cut.segment) == 1:
                N.contract_proper(d, cut, system)
            else:
                N.contract_commutative(d, cut.segment.end[:-1], system)
    assert seen.count("proper") > 100 and seen.count("commutative") > 20


# --- broken contraction cores ----------------------------------------------
#
# Each base tree has one cut, an ``imp-e`` or ``and-e1`` over its
# introduction; each core rewrites it wrongly and returns the rewrite, as
# ``_contract_proper_core`` does.


def _core(rewrite):
    def core(d, elim_path, census=None):
        return rewrite(subtree_at(d, elim_path))

    return core


def _detour(label):
    """``(\\label. label) w`` with ``w: p``."""
    return K.imp_e(K.imp_i(frozenset({label}), K.hyp(label, P, ())), K.hyp("w", P, ()))


def opens_a_new_assumption():
    """The rewrite opens ``k: q`` under a discharge of ``k: r``."""
    base = K.imp_i(frozenset({"k"}), _detour("a"), PFormula(R, ()))
    new = K.and_e1(K.and_i(K.hyp("w", P, ()), K.hyp("k", Q, ())))
    return base, (0,), _core(lambda old: new)


def wrong_discharge_label():
    """The rewrite plugs the minor into the wrong label, so the leaf ``a``
    is left open under an outer vacuous discharge of ``a: r``."""
    base = K.imp_i(frozenset({"a"}), _detour("a"), PFormula(R, ()))

    def rewrite(old):
        I, minor = old.premises
        return K.plug(I.premises[0], frozenset({"zz"}), minor)

    return base, (0,), _core(rewrite)


def changed_conclusion():
    """The rewrite takes the wrong conjunct, so the minor of the ``imp-e``
    below no longer concludes its antecedent."""
    redex = K.and_e1(K.and_i(K.hyp("x", P, ()), K.hyp("y", Q, ())))
    base = K.imp_e(K.hyp("f", Imp(P, Q), ()), redex)
    return base, (1,), _core(lambda old: old.premises[0].premises[1])


def unfresh_witness():
    """The rewrite introduces a necessity over a premise that assumes
    ``h: bot`` at the witness position; ``h`` was open there already."""
    boxed = K.box_i("x", frozenset(), K.box_e(K.hyp("u", Box(P), ()), ("x",)))
    side = K.bot_i(K.hyp("h", Bottom(), ("x",)), Q, ())
    base = K.and_e1(K.and_i(boxed, side))

    def rewrite(old):
        body = K.and_e1(
            K.and_i(
                K.box_e(K.hyp("u", Box(P), ()), ("x",)),
                K.hyp("h", Bottom(), ("x",)),
            )
        )
        return K.box_i("x", frozenset(), body)

    return base, (), _core(rewrite)


def existence_leaf():
    """The rewrite is an existence-assumption leaf ``w`` (ill-formed: it
    assumes the p-formula ``w`` assumed) in a premise slot that must
    conclude a p-formula; in a partial system the leaf passes the check
    walk on its own."""
    base = K.and_i(_detour("a"), K.hyp("z", P, ()))
    leaf = K._mk("ehyp", (), label="w", content=PFormula(P, ()))
    return base, (0,), _core(lambda old: leaf)


BROKEN = [
    (opens_a_new_assumption, S4I, "assumption 'k' is opened"),
    (wrong_discharge_label, S4I, "assumption 'a' is opened"),
    (changed_conclusion, S4I, "the rewritten subtree changed its conclusion"),
    (
        unfresh_witness,
        S4I,
        "witness position (x) must be fresh for the remaining open assumptions",
    ),
    (
        existence_leaf,
        K.System("k", "intuitionistic"),
        "the rewritten subtree changed an existence-assumption leaf",
    ),
]


@pytest.mark.parametrize(
    "case,system,fault", BROKEN, ids=[case.__name__ for case, _, _ in BROKEN]
)
def test_broken_cores_are_rejected_by_guard_and_check(case, system, fault, monkeypatch):
    base, at, core = case()
    assert check(base, system).ok
    assert len(N.cuts(base)) == 1
    d = freshen(base)
    new = core(d, at)
    out = reference_replace_at(d, at, new)
    assert out.conclusion == base.conclusion
    assert not check(out, system).ok
    # The guard reports exactly the fault the core was built with.
    message = f"proper contraction broke the derivation: {fault}"
    with pytest.raises(NormalizerError) as err:
        N._accepted(N._Kept(d, system), at, new, "proper")
    assert str(err.value) == message
    monkeypatch.setattr(N, "_contract_proper_core", core)
    (cut,) = N.cuts(base)
    for run in (N.normalize, N.reduce_once, lambda d, s: N.contract_proper(d, cut, s)):
        with pytest.raises(NormalizerError) as err:
            run(base, system)
        assert str(err.value) == message


# --- no whole-tree pass per round ------------------------------------------


#: Per chain of 300 levels: its number of contractions and the number of
#: nodes each one rewrites (a detour contracts to a leaf, a ``box`` detour to
#: a ``box-e`` over a leaf).
_CHAIN_COUNTS = {detour_chain: (300, 1), box_chain: (299, 2)}


@pytest.mark.parametrize("chain", [detour_chain, box_chain])
def test_a_round_walks_only_what_it_rewrote(chain, monkeypatch):
    n_steps, size = _CHAIN_COUNTS[chain]
    walked = []
    real = K._check_walk

    def counted(d, *args):
        walked.append(d)
        return real(d, *args)

    labelled = []
    real_labels = K.all_labels

    def counted_labels(d):
        labelled.append(d)
        return real_labels(d)

    for module in (K, N):
        monkeypatch.setattr(module, "_check_walk", counted)
    monkeypatch.setattr(K, "all_labels", counted_labels)
    searched = []
    monkeypatch.setattr(N, "_witness", lambda n: searched.append(n) or K._witness(n))
    indexed = []
    monkeypatch.setattr(N, "_preorder", lambda t: indexed.append(t) or K._preorder(t))
    ranked = []
    rank = N.rank
    monkeypatch.setattr(N, "rank", lambda t: ranked.append(t) or rank(t))
    made = []
    real_mk = K._mk

    def counted_mk(*args, **kw):
        made.append(real_mk(*args, **kw))
        return made[-1]

    monkeypatch.setattr(K, "_mk", counted_mk)
    accepted = []  # (input, redex path, rewrite, the redex's ancestors in the result)
    real_accepted = N._accepted

    def spy(st, at, new, what):
        d = st.d
        got = real_accepted(st, at, new, what)
        above, node = [], got
        for i in at:
            above.append(node)
            node = node.premises[i]
        accepted.append((d, at, new, above))
        return got

    monkeypatch.setattr(N, "_accepted", spy)
    d = chain(300)
    out, trace, steps = N.normalize_steps(d, S4I)
    assert len(steps) == len(trace) - 1 == n_steps and trace[-1] == (0, 0)
    news = [new for _, _, new, _ in accepted]
    assert len(news) == len(steps)
    assert all(sum(1 for _ in new) == size for new in news)
    # The entry and the final check walk the whole tree; each contraction's
    # guard walks only the subtree it rewrote, and nothing else is checked.
    assert len(walked) == 2 + len(steps)
    assert walked[0] is d and walked[-1] is out
    assert all(map(operator.is_, walked[1:-1], news))
    # The index, too, is made of the whole tree only on entry; after that
    # only each rewritten subtree is indexed, once.
    assert len(indexed) == 1 + len(steps)
    assert indexed[0] is accepted[0][0]
    assert all(map(operator.is_, indexed[1:], news))
    # The witness search looks at the rewritten subtrees only.
    assert len(searched) == len(steps) * size
    assert labelled == [] and ranked == []
    # No node above a redex is built by ``_mk``, which computes conclusions.
    made_ids = {id(n) for n in made}
    assert sum(len(above) for *_, above in accepted) > 300
    assert not any(id(n) in made_ids for *_, above in accepted for n in above)


def test_a_normal_derivation_has_no_cut():
    # A cut's top is the major premise of an elimination over an
    # introduction or a case split, so ``normalize_steps`` tests its result
    # with ``is_normal`` alone.
    normal = with_cuts = 0
    for d, system in corpus():
        cur = d
        while cur is not None:
            if N.is_normal(cur):
                assert N.cuts(cur) == ()
                normal += 1
            with_cuts += bool(N.cuts(cur))
            cur = N.reduce_once(cur, system)
    assert normal > 200 and with_cuts > 200
