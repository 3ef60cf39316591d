"""Contractions that freshen only when a witness repeats, against reference
copies of the versions that freshened every contraction's result.

A witness (a ``box-i`` with a token over a premise at a non-empty position,
or a ``dia-e`` with a token) needs renaming apart only when a contraction
copies it: ``plug`` with several bound leaves, or a commutation over
``or-e`` minors.  The references freshen the whole tree after every
contraction, and their ``box-e``/``dia-e`` contractions freshen the subtree
they substitute into first (the public ``substitute``).  Both must give the
same rank traces, step logs and printed normal forms, and every
intermediate tree must be the same up to a bijective renaming of reserved
tokens and satisfy the position condition.  The references also rename
every binder of a subtree a contraction plugs into or copies, where today's
code renames binders only where they would capture a moved assumption, so
normal forms, printed proofs and intermediate trees are compared up to a
renaming of bound labels as well (``test_freshen_oracle.nameless``).  A
contraction that copies no witness keeps every subtree off the rewritten
path as the same object, and its witnesses keep the tokens its input's
freshen gave them.
"""

from __future__ import annotations

from posnd import kernel as K
from posnd import normalizer as N
from posnd import translate as T
from posnd.kernel import all_labels, check, freshen, plug, relabel_binders
from posnd.normalizer import (
    FlavorUnsupported,
    NormalizerError,
    RankIncreased,
    NotARedex,
    _commute_node,
    _cuts,
    _occurrences,
    _preorder,
    _rank,
    _redex_at,
    _require_commutable,
    _select,
    is_normal,
    rank,
    subtree_at,
)
from posnd.syntax import Atom, Box, Dia, Imp, Or, Bottom

from test_freshen_oracle import nameless, reserved_canon
from test_preorder_oracle import chains, corpus, reference_replace_at
from test_walk_oracle import reference_resolve_joins

P, Q = Atom("p"), Atom("q")
S4I = K.System("s4", "intuitionistic")


# --- the reference: every contraction freshens its result ------------------


def reference_contract_proper_core(d, elim_path, system):
    """The contraction core whose substitutions freshen their subtree."""
    R = subtree_at(d, elim_path)
    I = R.premises[0]
    forb = all_labels(d)
    r = R.rule
    if r == "and-e1":
        new = I.premises[0]
    elif r == "and-e2":
        new = I.premises[1]
    elif r == "imp-e":
        skel = relabel_binders(I.premises[0], forb)
        new = plug(skel, I.discharges[0], R.premises[1], "p")
    elif r == "or-e":
        if I.rule == "or-i1":
            slot, labels = 1, R.discharges[0]
        else:
            slot, labels = 2, R.discharges[1]
        skel = relabel_binders(R.premises[slot], forb)
        new = plug(skel, labels, I.premises[0], "p")
    elif r == "box-e":
        alpha = I.conclusion.position
        witness = alpha + (I.token,)
        new = K.substitute(
            I.premises[0],
            witness,
            alpha + tuple(R.beta or ()),
            system,
        )
        if I.e_discharges:
            new = plug(new, I.e_discharges, R.premises[1], "e")
    elif r == "dia-e":
        alpha = I.conclusion.position
        witness = alpha + (R.token,)
        mapped = K.substitute(
            R.premises[1],
            witness,
            alpha + tuple(I.beta or ()),
            system,
        )
        skel = relabel_binders(mapped, forb)
        if R.e_discharges:
            skel = plug(skel, R.e_discharges, I.premises[1], "e")
        new = plug(skel, R.discharges[0], I.premises[0], "p")
    else:
        raise NotARedex(f"no proper contraction for rule {r!r}")
    if new.conclusion != R.conclusion:
        raise NormalizerError("proper contraction changed the conclusion")
    return reference_replace_at(d, elim_path, new)


def reference_contract_proper(d, occ, system):
    at = _redex_at(d, occ)
    out = freshen(reference_contract_proper_core(d, at, system))
    rep = check(out, system)
    if not rep.ok:
        raise NormalizerError(
            "proper contraction broke the derivation: "
            + "; ".join(v.message for v in rep.violations[:3])
        )
    return out


def reference_contract_commutative(d, at, system):
    _require_commutable(d, at)
    new = _commute_node(subtree_at(d, at), all_labels(d))
    out = freshen(reference_replace_at(d, at, new))
    rep = check(out, system)
    if not rep.ok:
        raise NormalizerError(
            "commutative contraction broke the derivation: "
            + "; ".join(v.message for v in rep.violations[:3])
        )
    return out


def reference_normalize_steps(d, system, *, trail=None):
    """The parent's ``normalize_steps``; ``trail`` collects every
    contraction's result and the tree after the cleanup commutations."""
    trail = [] if trail is None else trail
    if system.flavor != "intuitionistic":
        raise FlavorUnsupported(
            "normalization is defined for the intuitionistic flavor only"
        )
    if not check(d, system).ok:
        raise ValueError("normalize requires a derivation that checks")
    cur = freshen(d)
    ix = _preorder(cur)
    cs = _cuts(ix)
    trace = [_rank(cs)]
    steps = []
    rounds = 0
    while cs:
        rounds += 1
        prev = trace[-1]
        seg = list(_occurrences(_select(cs, ix), ix))
        while len(seg) > 1:
            end = seg[-1]
            e = end[:-1]
            mslot = seg[-2][len(e) + 1]
            cur = reference_contract_commutative(cur, e, system)
            trail.append(cur)
            steps.append((rounds, "commutative", e, rank(cur)))
            old_prefix = e + (0, mslot)
            new_prefix = e + (mslot, 0)
            seg = [new_prefix + o[len(old_prefix):] for o in seg[:-1]]
        cur = reference_contract_proper(cur, (seg[0],), system)
        trail.append(cur)
        ix = _preorder(cur)
        cs = _cuts(ix)
        rk = _rank(cs)
        steps.append((rounds, "proper", seg[0][:-1], rk))
        trace.append(rk)
        if not rk < prev:
            raise RankIncreased(
                f"round {rounds} went from rank {prev} to {rk}"
            )
    cleanup = []
    cur = reference_resolve_joins(cur, cleanup)
    if cleanup:
        cur = freshen(cur)
        trail.append(cur)
        for kind, path in cleanup:
            rounds += 1
            steps.append((rounds, kind, path, (0, 0)))
    rep = check(cur, system)
    if not rep.ok:
        raise NormalizerError(
            "normalization broke the derivation: "
            + "; ".join(v.message for v in rep.violations[:3])
        )
    if _cuts(_preorder(cur)) or not is_normal(cur):
        raise NormalizerError("normalization finished on a non-normal derivation")
    if cur.conclusion != d.conclusion:
        raise NormalizerError("normalization changed the conclusion")
    return cur, trace, steps


# --- normalize-deep-like chains --------------------------------------------
#
# Each figure wraps a derivation ``d`` concluding at the root in one detour:
# the transparent ones contract back to ``d``, the modal ones to an
# expansion of it, the commutative ones to a case split around it.


def _fig_imp(d, nm, partial):
    a = nm("a")
    return K.imp_e(K.imp_i(frozenset({a}), K.hyp(a, d.conclusion.formula, ())), d)


def _fig_and1(d, nm, partial):
    return K.and_e1(K.and_i(d, K.hyp(nm("w"), Q, ())))


def _fig_and2(d, nm, partial):
    return K.and_e2(K.and_i(K.hyp(nm("w"), Q, ()), d))


def _fig_or1(d, nm, partial):
    f = d.conclusion.formula
    a, b = nm("a"), nm("b")
    return K.or_e(
        K.or_i1(Q, d), frozenset({a}), K.hyp(a, f, ()),
        frozenset({b}), K.hyp(nm("w"), f, ()),
    )


def _fig_or2(d, nm, partial):
    f = d.conclusion.formula
    a, b = nm("a"), nm("b")
    return K.or_e(
        K.or_i2(Q, d), frozenset({a}), K.hyp(nm("w"), f, ()),
        frozenset({b}), K.hyp(b, f, ()),
    )


def _fig_box(d, nm, partial):
    x = nm("x")
    e = nm("e")
    ep = K.ehyp(e, (x,)) if partial else None
    return K.box_i(x, frozenset({e} if partial else ()), K.box_e(d, (x,), ep))


def _fig_dia(d, nm, partial):
    x, a, e = nm("x"), nm("a"), nm("e")
    ep = K.ehyp(e, (x,)) if partial else None
    minor = K.dia_i((x,), K.hyp(a, d.conclusion.formula.body, (x,)), ep)
    return K.dia_e(d, x, frozenset({a}), frozenset({e} if partial else ()), minor)


def _fig_comm_or(d, nm, partial):
    b1, b2 = nm("b"), nm("b")
    return K.and_e1(K.or_e(
        K.hyp(nm("m"), Or(Q, Q), ()),
        frozenset({b1}), K.and_i(d, K.hyp(b1, Q, ())),
        frozenset({b2}), K.and_i(K.hyp(nm("v"), d.conclusion.formula, ()), K.hyp(b2, Q, ())),
    ))


def _fig_comm_dia(d, nm, partial):
    return K.and_e1(K.dia_e(
        K.hyp(nm("m"), Dia(Q), ()), nm("x"), frozenset({nm("b")}), frozenset(),
        K.and_i(d, K.hyp(nm("w"), Q, ())),
    ))


_TRANSPARENT = (_fig_imp, _fig_and1, _fig_and2, _fig_or1, _fig_or2)
_FAMILIES = {
    "box": (K.hyp("u", Box(P), ()), _TRANSPARENT + (_fig_box,)),
    "dia": (K.hyp("u", Dia(P), ()), _TRANSPARENT + (_fig_dia,)),
    "comm": (K.hyp("u", P, ()), _TRANSPARENT + (_fig_comm_or, _fig_comm_dia)),
}


def deep_chains():
    """Stacked detour chains of every contraction figure in every logic, as
    the normalize-deep benchmark builds them, and the built-in classical
    proofs translated."""
    out = []
    for logic in K.LOGICS:
        system = K.System(logic, "intuitionistic")
        for base, figures in _FAMILIES.values():
            for repeats in (1, 2, 3):
                count = iter(range(10**6))
                nm = lambda stem: f"{stem}{next(count)}"  # noqa: E731
                d = base
                for fig in figures * repeats:
                    d = fig(d, nm, system.partial)
                assert check(d, system).ok
                out.append((d, system))
    for axiom, logic in sorted(K.BUILTIN_PAIRS):
        d, system = K.builtin(axiom, logic)
        out.append(
            (T.classical_to_intuitionistic(d, system), K.System(logic, "intuitionistic"))
        )
    return out


def nested_box_detour():
    """A ``box-e`` of a ``box-i`` over a second ``box-i``: its contraction
    substitutes into a subtree that holds a witness, and copies none."""
    inner = K.box_e(K.hyp("u", Box(P), ()), ("x", "y"))
    return K.box_e(K.box_i("x", frozenset(), K.box_i("y", frozenset(), inner)), ("z",))


def copied_witness():
    """``(\\u. u & u) (box-i x. \\v. v)`` with ``u: box (p -> p)``: the proper
    contraction plugs the ``box-i`` into both leaves bound by ``u``."""
    a = Box(Imp(P, P))
    major = K.imp_i(frozenset({"u"}), K.and_i(K.hyp("u", a, ()), K.hyp("u", a, ())))
    minor = K.box_i("x", frozenset(), K.imp_i(frozenset({"v"}), K.hyp("v", P, ("x",))))
    return K.imp_e(major, minor)


# --- the oracle ------------------------------------------------------------


def _counted_freshen(monkeypatch):
    """Make the normalizer's ``freshen`` record every tree it is given."""
    calls = []
    monkeypatch.setattr(N, "freshen", lambda t: calls.append(t) or freshen(t))
    return calls


def printed(d, system):
    """The nameless form of ``d`` as its printed proof reads back."""
    return nameless(K.parse_proof(K.print_proof(d, system))[0])


def test_normalization_matches_the_always_freshening_reference(monkeypatch):
    trail = []
    real = N._freshened
    monkeypatch.setattr(
        N, "_freshened", lambda t, *new: trail.append(real(t, *new)) or trail[-1]
    )
    trees = rounds = 0
    for d, system in corpus() + list(chains(longest=100)) + deep_chains():
        trail.clear()
        out, trace, steps = N.normalize_steps(d, system)
        ref_trail = []
        ref, ref_trace, ref_steps = reference_normalize_steps(d, system, trail=ref_trail)
        assert trace == ref_trace
        assert steps == ref_steps
        assert printed(out, system) == printed(ref, system)
        # One entry per contraction, each commutation after the last cut
        # included; the reference has one for its cleanup as a whole.
        assert len(trail) == len(steps)
        in_round = sum(rk != (0, 0) or kind == "proper" for _, kind, _, rk in steps)
        assert len(ref_trail) == in_round + (in_round < len(steps))
        for got, want in zip(trail[:in_round], ref_trail):
            assert nameless(got) == nameless(want)
        if in_round < len(steps):
            assert nameless(trail[-1]) == nameless(ref_trail[-1])
        for got in trail:
            assert K.check_position_condition(got) == ()
        assert nameless(out) == nameless(ref)
        trees += len(trail)
        rounds += len(trace) - 1
    assert trees > 1000 and rounds > 500


def test_contraction_keeps_untouched_subtrees(monkeypatch):
    calls = _counted_freshen(monkeypatch)
    kept = witness_siblings = 0
    for d, system in corpus() + deep_chains() + [(copied_witness(), S4I)]:
        f = freshen(d)
        for cut in N.cuts(f):
            if len(cut.segment) != 1:
                continue
            occ = cut.segment.occurrences
            before = len(calls)
            out = N._contract_proper(N._Kept(f, system), _redex_at(f, occ))
            if len(calls) > before:
                continue
            kept += 1
            old, new = f, out
            for i in occ[0][:-1]:
                for j, (a, b) in enumerate(zip(old.premises, new.premises)):
                    if j != i:
                        assert b is a
                        witness_siblings += any(True for _ in N._witness_tokens(a))
                old, new = old.premises[i], new.premises[i]
    assert kept > 300 and witness_siblings > 30


def test_a_copied_witness_is_freshened_once(monkeypatch):
    calls = _counted_freshen(monkeypatch)
    out, trace = N.normalize(copied_witness(), S4I)
    # The input, then the contraction's result, whose two box-i share a token.
    assert len(calls) == 2
    tokens = [n.token for n in calls[1] if n.rule == "box-i"]
    assert len(tokens) == 2 and tokens[0] == tokens[1]
    assert trace == [(4, 1), (0, 0)]
    assert check(out, S4I).ok
    assert K.check_position_condition(out) == ()
    tokens = [n.token for n in out if n.rule == "box-i"]
    assert len(tokens) == 2 and tokens[0] != tokens[1]


def test_a_contraction_that_copies_no_witness_keeps_the_entry_tokens():
    d = nested_box_detour()
    (cut,) = N.cuts(d)
    entry = [n.token for n in freshen(d) if n.rule == "box-i"]
    out = N.contract_proper(d, cut, S4I)
    assert [n.token for n in out if n.rule == "box-i"] == entry[1:]
    assert check(out, S4I).ok
    assert K.check_position_condition(out) == ()


def test_contractions_without_a_repeat_keep_their_input_tokens(monkeypatch):
    calls = _counted_freshen(monkeypatch)
    kept = []

    def keeping(real):
        def contract(st, *args):
            d = st.d
            before = len(calls)
            out = real(st, *args)
            if len(calls) == before:
                tokens = set(N._witness_tokens(out))
                assert tokens <= set(N._witness_tokens(d))
                kept.append(len(tokens))
            return out

        return contract

    for name in ("_contract_proper", "_contract_commutative"):
        monkeypatch.setattr(N, name, keeping(getattr(N, name)))
    for d, system in corpus() + deep_chains() + [(nested_box_detour(), S4I)]:
        N.normalize(d, system)
    assert len(kept) > 1000 and sum(map(bool, kept)) > 300


def test_a_witness_numbered_below_the_floor_is_freshened():
    # ``_0`` names a world outside every witness scope, so the input's
    # freshen numbers from ``_1``.  Freshening the outer dia-e's minor on its
    # own, which holds no witness position, would number from ``_0`` again
    # and make the inner, unused dia-e witness the world ``(_0)`` held
    # outside its scope.  The contraction keeps the input's tokens instead.
    inner = K.dia_e(
        K.hyp("m", Dia(P), ()), "w", frozenset({"b"}), frozenset(), K.hyp("k", Q, ())
    )
    redex = K.dia_e(
        K.dia_i(("z",), K.hyp("h", P, ("z",))), "y", frozenset({"a"}), frozenset(), inner
    )
    d = K.and_i(redex, K.bot_i(K.hyp("f", Bottom(), ("_0",)), Q, ()))
    assert check(d, S4I).ok
    out, trace = N.normalize(d, S4I)
    assert trace == [(1, 1), (0, 0)]
    assert check(out, S4I).ok
    assert K.check_position_condition(out) == ()
    ref, _, _ = reference_normalize_steps(d, S4I)
    assert nameless(out) == nameless(ref)


def test_contract_proper_freshens_a_copied_witness():
    d = copied_witness()
    (cut,) = N.cuts(d)
    out = N.contract_proper(d, cut, S4I)
    assert K.check_position_condition(out) == ()
    ref = reference_contract_proper(freshen(d), cut.segment.occurrences, S4I)
    assert reserved_canon(out) == reserved_canon(ref)
