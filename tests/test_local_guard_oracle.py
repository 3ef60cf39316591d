"""The local acceptance guard of a contraction against the whole-tree check.

A contraction replaces one subtree ``old`` by ``new``.  The normalizer
accepts it by checking ``new`` alone (``normalizer._accepted``): ``new``
passes the kernel's check walk, keeps ``old``'s conclusion and opens only
assumptions open in ``old``.  It keeps a label census of the current tree
across rounds instead of collecting ``all_labels`` of the whole tree, and
looks for repeated witness tokens in ``new`` only.

Here every contraction of the oracle corpora is also judged by the
whole-tree ``check``, which must agree with the guard; the census must
equal the labels of the accepted tree; the repeat test over ``new`` must
agree with the one over the whole tree.  Deliberately broken contraction
cores must be rejected by both the guard and ``check``.  A normalization
of a detour chain makes exactly two whole-tree check walks, searches only
the rewritten subtrees for witnesses, and calls no ``all_labels``.
"""

from __future__ import annotations

from collections import Counter

import pytest

from posnd import kernel as K
from posnd import normalizer as N
from posnd.kernel import check, freshen
from posnd.normalizer import NormalizerError, _replace_at, subtree_at
from posnd.syntax import Atom, Bottom, Box, Imp, PFormula

from test_kernel import detour_chain
from test_preorder_oracle import chains, corpus
from test_witness_copy_oracle import deep_chains

P, Q, R = Atom("p"), Atom("q"), Atom("r")
S4I = K.System("s4", "intuitionistic")


def _repeats(tokens) -> bool:
    tokens = list(tokens)
    return len(tokens) != len(set(tokens))


def _spy_on_acceptance(monkeypatch):
    """Judge every contraction the normalizer accepts with the whole-tree
    ``check`` as well; returns the list of accepted contractions' kinds."""
    real = N._accepted
    seen = []

    def spy(d, out, at, system, t_strict, census, what):
        old, new = subtree_at(d, at), subtree_at(out, at)
        opens = check(old, system, t_strict_empty_beta=t_strict).open_assumptions
        assert N._open_pairs(old) == {(a.label, a.content) for a in opens}
        try:
            got = real(d, out, at, system, t_strict, census, what)
        except NormalizerError:
            assert not check(out, system, t_strict_empty_beta=t_strict).ok
            raise
        assert check(out, system, t_strict_empty_beta=t_strict).ok
        assert check(got, system, t_strict_empty_beta=t_strict).ok
        assert _repeats(N._witness_tokens(new)) == _repeats(N._witness_tokens(out))
        assert (got is out) != _repeats(N._witness_tokens(out))
        if census is not None:
            assert census == Counter(K._label_occurrences(got))
            assert set(census) == K.all_labels(got)
        seen.append(what)
        return got

    monkeypatch.setattr(N, "_accepted", spy)
    return seen


def test_guard_agrees_with_the_whole_tree_check(monkeypatch):
    seen = _spy_on_acceptance(monkeypatch)
    for d, system in corpus() + list(chains(longest=100)) + deep_chains():
        N.normalize_steps(d, system)
        N.reduce_once(d, system)
    assert len(seen) > 1500
    assert seen.count("commutative") > 100


def test_public_contractions_use_the_guard(monkeypatch):
    seen = _spy_on_acceptance(monkeypatch)
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
# introduction; each core rewrites it wrongly and returns the whole tree, as
# ``_contract_proper_core`` does.


def _core(rewrite):
    def core(d, elim_path, system, t_strict, census=None):
        return _replace_at(d, elim_path, rewrite(subtree_at(d, elim_path)))

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
    out = core(d, at, system, False)
    assert out.conclusion == base.conclusion
    assert not check(out, system).ok
    # The guard reports exactly the fault the core was built with.
    message = f"proper contraction broke the derivation: {fault}"
    for census in (None, Counter(K._label_occurrences(d))):
        with pytest.raises(NormalizerError) as err:
            N._accepted(d, out, at, system, False, census, "proper")
        assert str(err.value) == message
    monkeypatch.setattr(N, "_contract_proper_core", core)
    (cut,) = N.cuts(base)
    for run in (N.normalize, N.reduce_once, lambda d, s: N.contract_proper(d, cut, s)):
        with pytest.raises(NormalizerError) as err:
            run(base, system)
        assert str(err.value) == message


# --- no whole-tree pass per round ------------------------------------------


def test_a_round_walks_only_what_it_rewrote(monkeypatch):
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
        monkeypatch.setattr(module, "all_labels", counted_labels)
    searched = []
    monkeypatch.setattr(
        N, "_scope_slot", lambda n: searched.append(n) or K._scope_slot(n)
    )
    d = detour_chain(300)
    out, trace, steps = N.normalize_steps(d, S4I)
    assert len(steps) == 300 and trace[-1] == (0, 0)
    # The entry and the final check walk the whole tree; each contraction's
    # guard walks only the leaf its detour contracted to.
    assert len(walked) == 2 + len(steps)
    assert walked[0] is d and walked[-1] is out
    assert all(sum(1 for _ in t) == 1 for t in walked[1:-1])
    # The witness search, too, looks at that leaf only.
    assert len(searched) == len(steps)
    assert labelled == []
