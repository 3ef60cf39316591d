"""The normalizer's cut scan and selection, and ``check_position_condition``,
against reference copies of their versions that indexed nodes by path.

The references keep, in every normalization round, a dict from each node's
path to the node, climb segments by slicing paths and test each candidate
cut's duplication zones against every other candidate's occurrence paths;
their contractions freshen their input again.  Today's code numbers nodes in
pre-order with ``kernel._preorder``, answers a zone as a pre-order range and
freshens an input once, at the public entries.  Both must select the same
cut, report the same cuts, segments and rank, log the same normalization
steps, print the same normal form and contract to the same tree in
``reduce_once``.  The reference's commutations after the last cut are the
former cleanup walk (``test_walk_oracle.reference_resolve_joins``), and its
``reduce_once`` commutes the first split in post-order in a cut-free tree,
as the strategy does.  The references also freshen every contraction's result,
which today's code does only when a witness repeats, so ``reduce_once``'s
trees, and the ``commut-dia`` fixture's commuted tree, are compared up to a
bijective renaming of reserved tokens.  The
position condition is pinned the same way, on random trees and on mutants
with duplicated witnesses and with witness positions outside their scopes.
"""

from __future__ import annotations

import random

import pytest

from posnd import kernel as K
from posnd import normalizer as N
from posnd.kernel import all_labels, check, freshen
from posnd.normalizer import (
    Cut,
    NormalizerError,
    RankIncreased,
    Segment,
    _commute_node,
    _contract_proper_core,
    _redex_at,
    _require_commutable,
    _splits,
    is_normal,
    subtree_at,
)
from posnd.syntax import And, Atom, Or, degree, print_position

from test_freshen_oracle import (
    coherent_trees,
    detour_corpus,
    proofgen_trees,
    reserved_canon,
)
from test_kernel import box_chain, detour_chain, or_chain
from test_normalizer import FIXTURES, INTUITIONISTIC, random_corpus
from test_walk_oracle import reference_resolve_joins

P, Q = Atom("p"), Atom("q")
S4I = K.System("s4", "intuitionistic")


# --- the reference: the path-indexed versions ------------------------------


def reference_index(d):
    nodes = {}
    post = {}
    stack = [((), d)]
    while stack:
        path, node = stack.pop()
        if node is None:
            post[path] = len(post)
            continue
        nodes[path] = node
        stack.append((path, None))
        for i in range(len(node.premises) - 1, -1, -1):
            stack.append((path + (i,), node.premises[i]))
    return nodes, post


def reference_is_minor_root(path, idx):
    if not path:
        return False
    return path[-1] in K._RULE_TABLE[idx[path[:-1]].rule].minors


def reference_segment(path, idx):
    occ = [path]
    while reference_is_minor_root(occ[-1], idx):
        occ.append(occ[-1][:-1])
    return Segment(tuple(occ))


def reference_segments(d):
    idx = reference_index(d)[0]
    return tuple(
        reference_segment(path, idx)
        for path, node in idx.items()
        if node.rule not in K.JOIN_RULES
    )


def reference_cuts_of(idx):
    res = []
    for path, start in idx.items():
        fam = K._RULE_TABLE[start.rule].intro
        if fam is None:
            continue
        seg = reference_segment(path, idx)
        end = seg.end
        if not end or end[-1] != 0:
            continue
        parent = idx[end[:-1]]
        if K._RULE_TABLE[parent.rule].elim != fam:
            continue
        res.append(Cut(seg, fam, degree(start.conclusion.formula)))
    return tuple(res)


def reference_cuts(d):
    return reference_cuts_of(reference_index(d)[0])


def reference_rank_of(cs):
    if not cs:
        return (0, 0)
    top = max(c.degree for c in cs)
    return (top, sum(len(c.segment) for c in cs if c.degree == top))


def reference_rank(d):
    return reference_rank_of(reference_cuts(d))


def reference_dup_zones(cut, idx):
    zones = []
    e = cut.segment.end[:-1]
    for i in range(1, len(idx[e].premises)):
        zones.append(e + (i,))
    start = cut.segment.start
    for i in range(len(idx[start].premises)):
        zones.append(start + (i,))
    return zones


def reference_select(d, cs, ix=None):
    idx, po = ix or reference_index(d)
    top = max(c.degree for c in cs)
    cands = [c for c in cs if c.degree == top]

    def blocked(c):
        zones = reference_dup_zones(c, idx)
        for other in cands:
            if other is c:
                continue
            for o in other.segment.occurrences:
                if any(o[: len(z)] == z for z in zones):
                    return True
        return False

    pool = [c for c in cands if not blocked(c)] or cands
    return min(pool, key=lambda c: (po[c.segment.end], po[c.segment.start]))


def reference_replace_at(d, path, new):
    """``d`` with the subtree at ``path`` replaced by ``new``, every node
    above it rebuilt and its conclusion computed again."""
    above = [d]
    for i in path[:-1]:
        above.append(above[-1].premises[i])
    for node, i in zip(reversed(above), reversed(path)):
        prems = list(node.premises)
        prems[i] = new
        new = K._rebuilt(node, tuple(prems))
    return new


def reference_contract_proper(d, occ, system):
    at = _redex_at(d, occ)
    base = freshen(d)
    new = _contract_proper_core(base, at, all_labels(base))
    out = freshen(reference_replace_at(base, at, new))
    rep = check(out, system)
    if not rep.ok:
        raise NormalizerError("proper contraction broke the derivation")
    return out


def reference_contract_commutative(d, at, system):
    _require_commutable(d, at)
    base = freshen(d)
    new = _commute_node(subtree_at(base, at), all_labels(base))
    out = freshen(reference_replace_at(base, at, new))
    rep = check(out, system)
    if not rep.ok:
        raise NormalizerError("commutative contraction broke the derivation")
    return out


def reference_normalize_steps(d, system):
    if not check(d, system).ok:
        raise ValueError("normalize requires a derivation that checks")
    cur = freshen(d)
    ix = reference_index(cur)
    cs = reference_cuts_of(ix[0])
    trace = [reference_rank_of(cs)]
    steps = []
    rounds = 0
    while cs:
        rounds += 1
        prev = trace[-1]
        sel = reference_select(cur, cs, ix)
        seg = list(sel.segment.occurrences)
        while len(seg) > 1:
            end = seg[-1]
            e = end[:-1]
            mslot = seg[-2][len(e) + 1]
            cur = reference_contract_commutative(cur, e, system)
            steps.append((rounds, "commutative", e, reference_rank(cur)))
            old_prefix = e + (0, mslot)
            new_prefix = e + (mslot, 0)
            seg = [new_prefix + o[len(old_prefix):] for o in seg[:-1]]
        cur = reference_contract_proper(cur, (seg[0],), system)
        ix = reference_index(cur)
        cs = reference_cuts_of(ix[0])
        rk = reference_rank_of(cs)
        steps.append((rounds, "proper", seg[0][:-1], rk))
        trace.append(rk)
        if not rk < prev:
            raise RankIncreased(f"round {rounds} went from rank {prev} to {rk}")
    cleanup = []
    cur = reference_resolve_joins(cur, cleanup)
    if cleanup:
        cur = freshen(cur)
        for kind, path in cleanup:
            rounds += 1
            steps.append((rounds, kind, path, (0, 0)))
    assert check(cur, system).ok
    assert not reference_cuts(cur) and is_normal(cur)
    return cur, trace, steps


def reference_reduce_once(d, system):
    if not check(d, system).ok:
        raise ValueError("reduce_once requires a derivation that checks")
    ix = reference_index(d)
    cs = reference_cuts_of(ix[0])
    if cs:
        sel = reference_select(d, cs, ix)
        if len(sel.segment) > 1:
            return reference_contract_commutative(d, sel.segment.end[:-1], system)
        return reference_contract_proper(d, sel.segment.occurrences, system)
    cands = [p for p, n in ix[0].items() if _splits(n)]
    if not cands:
        return None
    # The first split in post-order.
    at = min(cands, key=ix[1].__getitem__)
    return reference_contract_commutative(d, at, system)


def reference_check_position_condition(d):
    nodes = []
    parents = []
    stack = [(d, -1, 0)]
    while stack:
        n, parent, slot = stack.pop()
        here = len(nodes)
        nodes.append(n)
        parents.append((parent, slot))
        for i in range(len(n.premises) - 1, -1, -1):
            stack.append((n.premises[i], here, i))
    end = list(range(1, len(nodes) + 1))
    for i in range(len(nodes) - 1, 0, -1):
        parent = parents[i][0]
        end[parent] = max(end[parent], end[i])

    def path_of(i):
        out = []
        while i > 0:
            i, slot = parents[i]
            out.append(slot)
        return tuple(reversed(out))

    def child(i, slot):
        j = i + 1
        for _ in range(slot):
            j = end[j]
        return j

    instances = []
    for i, n in enumerate(nodes):
        c = n.conclusion
        if n.rule == "box-i" and n.token is not None and isinstance(c, K.PFormula):
            instances.append((i, "box-i", c.position + (n.token,), child(i, 0)))
        if n.rule == "dia-e" and n.token is not None:
            major = K._pf(n.premises[0])
            instances.append((i, "dia-e", major.position + (n.token,), child(i, 1)))
    holders = {}
    for length in {len(proper) for _, _, proper, _ in instances}:
        for i, n in enumerate(nodes):
            pos = n.conclusion.position
            if len(pos) >= length:
                holders.setdefault(pos[:length], []).append(i)
    violations = []
    seen = set()
    for i, rule, proper, _scope in instances:
        if proper in seen:
            violations.append(
                K.Violation(
                    path_of(i),
                    rule,
                    f"witness position {print_position(proper)} is introduced "
                    "by more than one rule instance",
                )
            )
        else:
            seen.add(proper)
    for i, rule, proper, scope in instances:
        at = holders.get(proper)
        if at and (at[0] < scope or at[-1] >= end[scope]):
            violations.append(
                K.Violation(
                    path_of(i),
                    rule,
                    f"witness position {print_position(proper)} occurs "
                    "outside the scope of its introducing rule",
                )
            )
    return tuple(sorted(violations, key=lambda v: (v.path, v.rule, v.message)))


# --- corpora ---------------------------------------------------------------


def chains(longest=300):
    for n in (1, 2, 7, 40, 100, 300):
        if n > longest:
            break
        yield detour_chain(n), S4I
        yield box_chain(n), S4I
        yield or_chain(n), S4I


def split_tie():
    """Two free cuts of degree 1 in different minors of an ``or-e``: one runs
    through the first minor into the ``and-e1`` below the split, the other
    ends inside the second minor.  The second one's end comes first in
    post-order, its start last; the cut from the second minor's ``and-i``
    is blocked by it."""
    inner = K.and_e1(K.and_i(K.hyp("w", P, ()), K.hyp("b", Q, ())))
    return K.and_e1(K.or_e(
        K.hyp("m", Or(P, Q), ()),
        frozenset({"a"}), K.and_i(K.hyp("a", P, ()), K.hyp("v", Q, ())),
        frozenset({"b"}), K.and_i(inner, K.hyp("z", Q, ())),
    ))


def nested_splits():
    """A cut-free tree with two eliminations over ``or-e`` conclusions, one
    in a minor of the other's split: ``reduce_once`` commutes the one in the
    minor first, which comes first in post-order."""
    pq = And(P, Q)
    inner = K.and_e1(K.or_e(
        K.hyp("m2", Or(P, Q), ()),
        frozenset({"c"}), K.hyp("s", And(pq, Q), ()),
        frozenset({"d"}), K.hyp("t", And(pq, Q), ()),
    ))
    return K.and_e1(K.or_e(
        K.hyp("m1", Or(P, Q), ()),
        frozenset({"a"}), inner,
        frozenset({"b"}), K.hyp("y", pq, ()),
    ))


def corpus():
    out = [(build(), system) for _, build, system, _ in FIXTURES]
    out += [(f(), system) for f in (split_tie, nested_splits) for system in INTUITIONISTIC]
    for seed in (101, 102, 103):
        out += random_corpus(seed, per_system=8, steps=12)
    out += detour_corpus(104) + detour_corpus(108)
    return out


def selected(d):
    ix = K._preorder(d)
    cs = N._cuts(ix)
    return N._occurrences(N._select(cs, ix), ix) if cs else None


def reference_selected(d):
    cs = reference_cuts(d)
    return reference_select(d, cs).segment.occurrences if cs else None


# --- the oracle ------------------------------------------------------------


def test_cut_scan_and_selection_match_reference():
    systems = set()
    with_cuts = 0
    for d, system in corpus() + list(chains()):
        systems.add(system)
        assert N.segments(d) == reference_segments(d)
        assert N.cuts(d) == reference_cuts(d)
        assert N.rank(d) == reference_rank(d)
        assert selected(d) == reference_selected(d)
        with_cuts += bool(N.cuts(d))
    assert set(INTUITIONISTIC) <= systems
    assert with_cuts > 100


def test_selection_matches_reference_in_every_round():
    # Every intermediate tree of the reference normalization, so selection
    # meets cuts left behind by earlier rounds and by commutations, and
    # ``reduce_once`` meets the cut-free commutations at the end.
    # ``blocked`` counts the rounds whose first cut by the tie-break alone
    # has another highest cut in its duplication zones.
    rounds = blocked = 0
    for d, system in corpus() + list(chains(longest=40)):
        cur = d
        while (nxt := reference_reduce_once(cur, system)) is not None:
            assert reserved_canon(N.reduce_once(cur, system)) == reserved_canon(nxt)
            sel = selected(cur)
            assert sel == reference_selected(cur)
            assert N.rank(cur) == reference_rank(cur)
            if sel is not None:
                po = reference_index(cur)[1]
                first = min(
                    reference_cuts(cur),
                    key=lambda c: (-c.degree, po[c.segment.end], po[c.segment.start]),
                )
                blocked += first.segment.occurrences != sel
            cur = nxt
            rounds += 1
    assert rounds > 200 and blocked > 50


def test_normalization_matches_reference():
    # Every round of the reference re-indexes paths, so its normalization
    # of a 300-level chain takes most of a minute; 100 levels suffice here.
    logged = 0
    for d, system in corpus() + list(chains(longest=100)):
        out, trace, steps = N.normalize_steps(d, system)
        ref, ref_trace, ref_steps = reference_normalize_steps(d, system)
        assert steps == ref_steps
        assert trace == ref_trace
        assert K.print_proof(out, system) == K.print_proof(ref, system)
        assert out.conclusion == ref.conclusion
        logged += len(steps)
    assert logged > 500


def test_reduce_once_matches_reference():
    contracted = 0
    for d, system in corpus() + list(chains()):
        out = N.reduce_once(d, system)
        ref = reference_reduce_once(d, system)
        assert (out is None) == (ref is None)
        if out is not None:
            assert reserved_canon(out) == reserved_canon(ref)
        contracted += out is not None
    assert contracted > 100


@pytest.mark.parametrize("name,build,system,expected", FIXTURES)
def test_public_contractions_match_reference(name, build, system, expected):
    d = build()
    for cut in N.cuts(d):
        if len(cut.segment) == 1:
            occ = cut.segment.occurrences
            ref = reference_contract_proper(d, occ, system)
            assert N.contract_proper(d, cut, system) == ref
        else:
            at = cut.segment.end[:-1]
            ref = reference_contract_commutative(d, at, system)
            got = N.contract_commutative(d, at, system)
            if name != "commut-dia":
                assert got == ref
            else:
                # The reference freshens the commuted tree again; its dia-e
                # token occurs in no position, so that renumbers it from _0
                # to _1.  No witness repeats, so the code keeps the token
                # that freshening its input gave.
                assert reserved_canon(got) == reserved_canon(ref)
                tokens = [n.token for n in K._preorder(got)[0] if n.token]
                assert tokens == ["_0"]


def witness_mutants(d, rng):
    """Trees that break the position condition of a freshened ``d``: every
    witness introduced twice; a witness position held by a leaf outside its
    scope, as a sibling or above the introducing rule; and the root world's
    nodes moved to a witness position."""
    witnesses = []
    for n in d:
        if n.rule == "box-i" and n.token is not None:
            witnesses.append(n.conclusion.position + (n.token,))
        if n.rule == "dia-e" and n.token is not None:
            witnesses.append(n.premises[0].conclusion.position + (n.token,))
    if not witnesses:
        return []
    out = [K.and_i(d, d)]
    for w in rng.sample(witnesses, min(3, len(witnesses))):
        stray = K.hyp("stray", P, w + tuple(rng.sample("abc", rng.randrange(2))))
        out.append(K.and_i(d, stray))
        out.append(K.imp_e(stray, d))
        out.append(K.map_positions(d, lambda p, w=w: p or w))
    return out


def test_position_condition_matches_reference():
    rng = random.Random(105)
    trees = coherent_trees(106, 300) + [d for d, _ in proofgen_trees(107, per_system=4)]
    trees += [d for d, _ in corpus()]
    trees += [K.freshen(d) for d, _ in corpus()]
    trees += [N.normalize(d, s)[0] for d, s in corpus()[:60]]
    trees += [K.freshen(d) for d in (box_chain(300), detour_chain(300), or_chain(300))]
    mutants = [m for d in trees for m in witness_mutants(K.freshen(d), rng)]
    duplicated = outside = 0
    for d in trees + mutants:
        got = K.check_position_condition(d)
        assert got == reference_check_position_condition(d)
        duplicated += any("more than one" in v.message for v in got)
        outside += any("outside the scope" in v.message for v in got)
    assert duplicated > 100 and outside > 100
