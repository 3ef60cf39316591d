"""Contractions rename a binder only where the material they move would be
captured by it.

Each fixture holds one contraction whose body (or, for a commutation, the
case split's root) has a binder named ``bind``; the ``box-e`` one failed
with ``NormalizerError`` before its contraction tested for capture.  Named after a label open
in a plugged premise or a moved side premise, that binder would capture
the label, so the contraction renames it to a fresh ``lN``; named ``w``
it captures nothing, and the body is plugged as it is: its binders keep
their labels, and the subtrees off the plugged path stay the same objects.
"""

from __future__ import annotations

import re

import pytest

from posnd import kernel as K
from posnd import normalizer as N
from posnd.kernel import all_labels, check
from posnd.normalizer import subtree_at
from posnd.syntax import Atom, Box, Dia, Imp, Or, PFormula

from test_preorder_oracle import chains, corpus
from test_witness_copy_oracle import deep_chains

P, Q = Atom("p"), Atom("q")
S4I = K.System("s4", "intuitionistic")
KI = K.System("k", "intuitionistic")
K4I = K.System("k4", "intuitionistic")
FRESH = re.compile(r"l[0-9]+")


def _off():
    """A normal derivation of ``p`` at the root with open leaves ``k``, ``k2``."""
    return K.imp_e(K.hyp("k", Imp(Q, P), ()), K.hyp("k2", Q, ()))


def imp_capture(bind):
    # (\u. \bind. (u, off)) v: the body's binder meets the free v.
    body = K.imp_i(frozenset({bind}), K.and_i(K.hyp("u", P, ()), _off()), PFormula(Q, ()))
    return K.imp_e(K.imp_i(frozenset({"u"}), body), K.hyp("v", P, ()))


def or_capture(bind):
    body = K.imp_i(frozenset({bind}), K.and_i(K.hyp("a", P, ()), _off()), PFormula(Q, ()))
    other = K.imp_i(frozenset({"c"}), K.and_i(K.hyp("v", P, ()), _off()), PFormula(Q, ()))
    return K.or_e(
        K.or_i1(Q, K.hyp("v", P, ())), frozenset({"a"}), body, frozenset({"b"}), other
    )


def dia_capture(bind):
    # The body's binder meets the free v of the dia-i's premise.
    inner = K.imp_i(frozenset({bind}), K.hyp("a", P, ("y",)), PFormula(Q, ("y",)))
    minor = K.and_i(K.dia_i(("y",), inner), _off())
    major = K.dia_i(("x",), K.hyp("v", P, ("x",)))
    return K.dia_e(major, "y", frozenset({"a"}), frozenset(), minor)


def dia_e_capture(bind):
    # The body's e-binder meets the free existence assumption f of the
    # dia-i's existence premise.
    inner = K.dia_i(("y",), K.hyp("a", P, ("y",)), K.ehyp("e", ("y",)))
    split = K.dia_e(K.hyp("m", Dia(Q), ()), "w", frozenset({"c"}), frozenset({bind}), inner)
    major = K.dia_i(("x",), K.hyp("v", P, ("x",)), K.ehyp("f", ("x",)))
    return K.dia_e(major, "y", frozenset({"a"}), frozenset({"e"}), K.and_i(split, _off()))


def box_capture(bind):
    # The body's e-binder meets the free existence assumption f of the
    # box-e's existence premise.
    step = K.box_e(K.hyp("u", Box(Box(P)), ()), ("x",), K.ehyp("e", ("x",)))
    inner = K.box_i("y", frozenset({bind}), K.box_e(step, ("y",), K.ehyp(bind, ("x", "y"))))
    major = K.box_i("x", frozenset({"e"}), inner)
    return K.box_e(major, ("z",), K.ehyp("f", ("z",)))


def commute_capture(bind):
    # imp-e over an or-e whose first minor discharges bind: the side
    # premise v moves under it.
    first = K.imp_i(frozenset({"c"}), K.hyp("c", P, ()))
    second = K.imp_i(frozenset({"c2"}), K.hyp("c2", P, ()))
    split = K.or_e(
        K.hyp("m", Or(Q, Q), ()), frozenset({bind}), first, frozenset({"b"}), second
    )
    return K.imp_e(split, K.hyp("v", P, ()))


def _proper(d, system):
    (cut,) = N.cuts(d)
    return N.contract_proper(d, cut, system)


def _commute(d, system):
    return N.contract_commutative(d, (), system)


#: name, build, system, contraction, the clashing name, the binder's path in
#: the result, and (result path, input path) pairs of subtrees off the
#: plugged path.
CASES = [
    ("imp-e", imp_capture, S4I, _proper, "v", (), [((0, 1), (0, 0, 0, 1))]),
    ("or-e", or_capture, S4I, _proper, "v", (), [((0, 1), (1, 0, 1))]),
    ("dia-e", dia_capture, S4I, _proper, "v", (0, 0), [((1,), (1, 1))]),
    ("dia-e-exists", dia_e_capture, KI, _proper, "f", (0,),
     [((1,), (1, 1)), ((0, 0), (1, 0, 0))]),
    ("box-e", box_capture, K4I, _proper, "f", (), [((0, 0, 0), (0, 0, 0, 0, 0))]),
    ("commutation", commute_capture, S4I, _commute, "v", (),
     [((0,), (0, 0)), ((1, 0), (0, 1)), ((2, 0), (0, 2)), ((1, 1), (1,)), ((2, 1), (1,))]),
]


def _opens(d, system):
    return {(a.label, a.content) for a in check(d, system).open_assumptions}


def _binds(n):
    return set().union(*n.discharges, n.e_discharges)


@pytest.mark.parametrize(
    "name,build,system,contract,clash,binder,kept", CASES, ids=[c[0] for c in CASES]
)
def test_a_capturing_binder_is_renamed(name, build, system, contract, clash, binder, kept):
    d = build(clash)
    assert check(d, system).ok
    out = contract(d, system)
    assert check(out, system).ok
    assert out.conclusion == d.conclusion
    assert _opens(out, system) == _opens(d, system)
    renamed = _binds(subtree_at(out, binder))
    assert clash not in renamed
    assert any(FRESH.fullmatch(lab) and lab not in all_labels(d) for lab in renamed)


@pytest.mark.parametrize(
    "name,build,system,contract,clash,binder,kept", CASES, ids=[c[0] for c in CASES]
)
def test_a_clash_free_body_is_plugged_as_it_is(
    name, build, system, contract, clash, binder, kept
):
    d = build("w")
    assert check(d, system).ok
    out = contract(d, system)
    assert check(out, system).ok
    assert out.conclusion == d.conclusion
    assert _opens(out, system) == _opens(d, system)
    assert "w" in _binds(subtree_at(out, binder))
    for at_out, at_in in kept:
        assert subtree_at(out, at_out) is subtree_at(d, at_in)
    assert {lab for n in out for lab in _binds(n)} <= all_labels(d)


def test_binders_keep_their_labels_without_a_clash():
    # On the corpora no contraction meets a clash, so every label a
    # normal form discharges is one its input has.
    for d, system in corpus() + list(chains(longest=40)) + deep_chains():
        out, _ = N.normalize(d, system)
        assert {lab for n in out for lab in _binds(n)} <= all_labels(d)


def test_a_normal_form_draws_fresh_labels_only_for_a_clash():
    for _name, build, system, _c, clash, _b, _k in CASES:
        d = build(clash)
        out, _ = N.normalize(d, system)
        labels = all_labels(d)
        fresh = {lab for n in out for lab in _binds(n)} - labels
        assert fresh and all(FRESH.fullmatch(lab) for lab in fresh)
