"""``kernel.freshen`` and ``kernel.map_positions`` against reference copies
of their first, recursive versions.

The reference ``freshen`` rebuilds the tree bottom-up and, at each witness,
renames the witness position through the whole scope subtree with a nested
``map_positions`` call, so a scope is walked again for every enclosing
witness.  The kernel does the same renamings in one pass.  Both must give
dataclass-equal trees on every input below, and normalization must give the
same tree, rank trace and step log with either.  ``check_position_condition``,
the discipline ``freshen`` establishes, is pinned the same way.

One pass applies the renamings of nested scopes composed, which is the same
as applying them one scope at a time as long as every ``dia-i`` step is a
suffix of its premise's position and no ``dia-e`` concludes under its own
witness position.  Every checking tree is such a tree; so are the random,
mostly non-checking trees of ``coherent_trees``, which nest witnesses far
more than proofgen's.
"""

from __future__ import annotations

import itertools
import random
import re

import pytest

import proofgen
from posnd import kernel as K
from posnd import normalizer as N
from posnd.syntax import (
    RESERVED_TOKEN_PREFIX,
    Atom,
    Bottom,
    Box,
    Dia,
    EFormula,
    Imp,
    PFormula,
    concat,
    prefix_replace,
    print_position,
)
from test_normalizer import FIXTURES, random_corpus

P = Atom("p")
SYSTEMS = [K.System(lg, fl) for lg in K.LOGICS for fl in K.FLAVORS]


def reference_map_positions(d, fn):
    prems = tuple(reference_map_positions(p, fn) for p in d.premises)
    over = {}
    if d.content is not None:
        if isinstance(d.content, EFormula):
            over["content"] = EFormula(fn(d.content.position))
        else:
            over["content"] = PFormula(d.content.formula, fn(d.content.position))
    if d.ante is not None:
        over["ante"] = PFormula(d.ante.formula, fn(d.ante.position))
    if d.target is not None:
        over["target"] = PFormula(d.target.formula, fn(d.target.position))
    if d.rule == "box-e" and d.beta is not None:
        base = K._pf(prems[0]).position
        tgt = fn(concat(K._pf(d.premises[0]).position, d.beta))
        over["beta"] = tgt[len(base) :] if tgt[: len(base)] == base else tgt
    if d.rule == "dia-i" and d.beta is not None:
        old_prem = K._pf(d.premises[0]).position
        old_base = old_prem[: len(old_prem) - len(d.beta)]
        base = fn(old_base)
        tgt = K._pf(prems[0]).position
        over["beta"] = tgt[len(base) :] if tgt[: len(base)] == base else tgt
    if d.rule == "box-i" and d.token is not None:
        prem_pos = K._pf(prems[0]).position
        if prem_pos:
            over["token"] = prem_pos[-1]
    if d.rule == "dia-e" and d.token is not None:
        old_proper = K._pf(d.premises[0]).position + (d.token,)
        new_proper = fn(old_proper)
        if new_proper:
            over["token"] = new_proper[-1]
    return K._rebuilt(d, prems, **over)


_FRESH_RE = re.compile(re.escape(RESERVED_TOKEN_PREFIX) + r"([0-9]+)$")


def reference_fresh_token_start(d):
    best = 0
    for n in d:
        poss = [n.conclusion.position]
        if n.content is not None:
            poss.append(n.content.position)
        if n.ante is not None:
            poss.append(n.ante.position)
        if n.target is not None:
            poss.append(n.target.position)
        if n.rule in ("box-i", "dia-e") and n.token is not None:
            poss.append((n.token,))
        for pos in poss:
            for tok in pos:
                m = _FRESH_RE.fullmatch(tok)
                if m:
                    best = max(best, int(m.group(1)) + 1)
    return best


def reference_freshen(d):
    counter = itertools.count(reference_fresh_token_start(d))

    def go(n):
        prems = tuple(go(p) for p in n.premises)
        node = K._rebuilt(n, prems)
        if node.rule == "box-i" and node.token is not None:
            prem_pos = K._pf(node.premises[0]).position
            if prem_pos:
                alpha = prem_pos[:-1]
                old = prem_pos
                new = alpha + (f"{RESERVED_TOKEN_PREFIX}{next(counter)}",)
                scoped = reference_map_positions(
                    node.premises[0], lambda p: prefix_replace(p, old, new)
                )
                node = K._rebuilt(node, (scoped,), token=new[-1])
        elif node.rule == "dia-e" and node.token is not None:
            major_pos = K._pf(node.premises[0]).position
            old = major_pos + (node.token,)
            new = major_pos + (f"{RESERVED_TOKEN_PREFIX}{next(counter)}",)
            scoped = reference_map_positions(
                node.premises[1], lambda p: prefix_replace(p, old, new)
            )
            node = K._rebuilt(node, (node.premises[0], scoped), token=new[-1])
        return node

    return go(d)


def reserved_canon(d):
    """The node data of ``d`` in pre-order, every reserved token ``_N``
    replaced by the order of its first occurrence: two trees are equal up to
    a bijective renaming of reserved tokens iff their canons are equal."""
    names = {}

    def tok(t):
        if t.startswith(RESERVED_TOKEN_PREFIX):
            return names.setdefault(t, ("reserved", len(names)))
        return t

    def pos(p):
        return None if p is None else tuple(tok(t) for t in p)

    def content(c):
        if c is None:
            return None
        return type(c), getattr(c, "formula", None), pos(c.position)

    return [
        (
            n.rule, len(n.premises), content(n.conclusion), n.label,
            content(n.content), content(n.ante), n.other, content(n.target),
            n.discharges, n.e_discharges, pos(n.beta),
            None if n.token is None else tok(n.token),
        )
        for n in d
    ]


def nameless(d):
    """``reserved_canon(d)`` without the names of bound labels: a leaf
    whose label a node above it discharges over the premise it stands in
    (whatever the kind, as ``check`` scopes them) names that node's
    pre-order number and premise slot, and a discharge set is its size.
    Free leaves keep their labels, and every other field stays exact.
    Trees equal up to renaming their bound labels have equal forms."""
    rows = reserved_canon(d)
    out = []
    stack = [(d, {})]
    while stack:
        n, scope = stack.pop()
        i = len(out)
        row = list(rows[i])
        row[3] = scope.get(n.label, n.label)
        row[8] = tuple(len(s) for s in n.discharges)
        row[9] = len(n.e_discharges)
        out.append(tuple(row))
        over = [scope] * len(n.premises)
        for slot, kind, j in K._RULE_TABLE[n.rule].scopes:
            labels = n.discharges[j] if kind == "p" else n.e_discharges
            over[slot] = {**over[slot], **{lab: ("bound", i, slot) for lab in labels}}
        stack += reversed(list(zip(n.premises, over)))
    return out


def reference_check_position_condition(d):
    instances = []
    positions = []

    def walk(n, path):
        c = n.conclusion
        positions.append((path, c.position))
        if n.rule == "box-i" and n.token is not None and isinstance(c, PFormula):
            proper = c.position + (n.token,)
            instances.append((path, "box-i", proper, path + (0,)))
        if n.rule == "dia-e" and n.token is not None:
            major = K._pf(n.premises[0])
            proper = major.position + (n.token,)
            instances.append((path, "dia-e", proper, path + (1,)))
        for i, p in enumerate(n.premises):
            walk(p, path + (i,))

    walk(d, ())
    violations = []
    seen = {}
    for path, rule, proper, _scope in instances:
        if proper in seen:
            violations.append(
                K.Violation(
                    path,
                    rule,
                    f"witness position {print_position(proper)} is introduced "
                    "by more than one rule instance",
                )
            )
        else:
            seen[proper] = path
    for path, rule, proper, scope in instances:
        for qpath, pos in positions:
            if pos[: len(proper)] == proper and qpath[: len(scope)] != scope:
                violations.append(
                    K.Violation(
                        path,
                        rule,
                        f"witness position {print_position(proper)} occurs "
                        "outside the scope of its introducing rule",
                    )
                )
                break
    return tuple(sorted(violations, key=lambda v: (v.path, v.rule, v.message)))


def proofgen_trees(seed, per_system=12, steps=14):
    rng = random.Random(seed)
    for system in SYSTEMS:
        for _ in range(per_system):
            yield proofgen.random_derivation(rng, system, steps=steps), system


def coherent(d):
    for n in d:
        if n.rule == "dia-i" and n.beta is not None:
            prem = n.premises[0].conclusion.position
            if len(n.beta) > len(prem) or prem[len(prem) - len(n.beta) :] != n.beta:
                return False
        if n.rule == "dia-e" and n.token is not None:
            w = n.premises[0].conclusion.position + (n.token,)
            if n.conclusion.position[: len(w)] == w:
                return False
    return True


def coherent_trees(seed, count):
    """Random trees, checking or not, dense in nested witnesses, with
    reserved tokens already in positions and as ``dia-e`` tokens."""
    rng = random.Random(seed)
    toks = ("a", "b", "x", "_1", "_2", "_5")

    def pos(n=3):
        return tuple(rng.choice(toks) for _ in range(rng.randrange(n + 1)))

    def formula(depth=2):
        if depth == 0 or rng.random() < 0.3:
            return rng.choice([P, Atom("q"), Bottom()])
        if rng.random() < 0.7:
            return rng.choice([Box, Dia])(formula(depth - 1))
        return Imp(formula(depth - 1), formula(depth - 1))

    def tree(depth):
        if depth == 0 or rng.random() < 0.15:
            return K.hyp(rng.choice("uvw"), formula(), pos())
        k = rng.randrange(6)
        if k == 0:
            return K.box_i(rng.choice(toks), frozenset(), tree(depth - 1))
        if k == 1:
            return K.box_e(tree(depth - 1), pos(2))
        if k == 2:
            return K.dia_i(pos(2), tree(depth - 1))
        if k == 3:
            return K.dia_e(tree(depth - 1), rng.choice(toks), frozenset({"u"}),
                           frozenset(), tree(depth - 1))
        if k == 4:
            return K.imp_e(tree(depth - 1), tree(depth - 1))
        return K.and_i(tree(depth - 1), tree(depth - 1))

    out = []
    while len(out) < count:
        d = tree(rng.randrange(2, 10))
        if rng.random() < 0.3:
            d = reference_freshen(d)
        if coherent(d):
            out.append(d)
    return out


def detour_corpus(seed):
    """``random_corpus`` and the normalizer's fixtures, each under one to three
    more detours on its conclusion (an identity ``imp-e``/``imp-i`` pair, or
    ``and-e1`` over ``and-i``), so that normalization has rounds to do."""
    rng = random.Random(seed)
    bases = [(build(), system) for _, build, system, _ in FIXTURES]
    out = []
    for i, (d, system) in enumerate(bases + random_corpus(seed, per_system=5, steps=12)):
        for j in range(rng.randrange(1, 4)):
            c = d.conclusion
            if not isinstance(c, PFormula):
                break
            lab = f"dz{i}_{j}"
            if rng.random() < 0.5:
                d = K.imp_e(K.imp_i(frozenset({lab}), K.hyp(lab, c.formula, c.position)), d)
            else:
                d = K.and_e1(K.and_i(d, K.hyp(lab, c.formula, c.position)))
        assert K.check(d, system).ok
        out.append((d, system))
    return out


def position_maps(d):
    """Prefix replacements of positions that occur in ``d``, and prefixings."""
    poss = sorted({n.conclusion.position for n in d})
    maps = [lambda p: concat(("y",), p), lambda p: concat(("_3", "z"), p)]
    for old in poss[:4]:
        for new in (("r",), old[:-1] + ("_7",), ()):
            maps.append(lambda p, old=old, new=new: prefix_replace(p, old, new))
    return maps


@pytest.mark.parametrize("seed", [3, 41])
def test_freshen_matches_reference_on_proofgen_trees(seed):
    witnesses = 0
    for d, _system in proofgen_trees(seed):
        f = K.freshen(d)
        assert f == reference_freshen(d)
        assert K.freshen(f) == reference_freshen(f)
        witnesses += sum(n.rule in ("box-i", "dia-e") for n in d)
    assert witnesses > 15


def test_freshen_matches_reference_on_nested_witnesses():
    trees = coherent_trees(7, 600)
    nested = 0
    for d in trees:
        assert K.freshen(d) == reference_freshen(d)
        nested += any(
            m is not n and m.rule in ("box-i", "dia-e")
            for n in d if n.rule in ("box-i", "dia-e") for m in n
        )
    assert nested > 200


def test_freshen_matches_reference_on_trees_normalize_freshens(monkeypatch):
    # A normalization freshens its input once, and a contraction's result
    # only when a witness repeats in it; every contraction result is a tree
    # it may freshen, so each is captured where that decision is made.
    seen = []
    real = N._freshened

    def capture(d, *new):
        seen.append(d)
        return real(d, *new)

    monkeypatch.setattr(N, "_freshened", capture)
    for d, system in detour_corpus(5) + detour_corpus(6):
        N.normalize(d, system)
    monkeypatch.undo()
    assert len(seen) > 100
    for d in seen:
        assert K.freshen(d) == reference_freshen(d)


def test_map_positions_matches_reference():
    calls = 0
    trees = [d for d, _ in proofgen_trees(17, per_system=6)] + coherent_trees(19, 100)
    for d in trees:
        for tree in (d, K.freshen(d)):
            for fn in position_maps(tree):
                seen_new, seen_ref = [], []
                new = K.map_positions(tree, lambda p: seen_new.append(p) or fn(p))
                ref = reference_map_positions(
                    tree, lambda p: seen_ref.append(p) or fn(p)
                )
                assert new == ref
                assert seen_new == seen_ref
                calls += 1
    assert calls > 1000


def test_normalize_steps_same_with_reference_freshen(monkeypatch):
    corpus = detour_corpus(23)
    ours = [N.normalize_steps(d, system) for d, system in corpus]
    monkeypatch.setattr(K, "freshen", reference_freshen)
    monkeypatch.setattr(N, "freshen", reference_freshen)
    theirs = [N.normalize_steps(d, system) for d, system in corpus]
    assert ours == theirs
    assert sum(len(steps) for _, _, steps in ours) > 100


def test_freshen_numbers_witnesses_in_post_order():
    inner = K.box_i("x", frozenset(), K.box_e(K.hyp("u", Box(Box(P)), ("_4",)), ("x",)))
    d = K.box_i("x", frozenset(), K.box_e(inner, ("x",)))
    f = K.freshen(d)
    assert f == reference_freshen(d)
    assert [n.token for n in f if n.rule == "box-i"] == ["_6", "_5"]


def test_check_position_condition_matches_reference():
    trees = coherent_trees(11, 400) + [d for d, _ in proofgen_trees(13, per_system=4)]
    trees += [K.freshen(d) for d in trees[:200]]
    trees += [N.normalize(d, system)[0] for d, system in detour_corpus(29)]
    flagged = 0
    for d in trees:
        got = K.check_position_condition(d)
        assert got == reference_check_position_condition(d)
        flagged += bool(got)
    assert flagged > 50


def test_fresh_token_equal_to_an_enclosing_dia_e_token():
    # "_0" occurs in no position, but it is the dia-e's token, so numbering
    # starts at 1: the inner box-i gets "_1" and the dia-e "_2".  Had the
    # box-i got "_0", the renaming of the dia-e's witness (_0) would map it
    # again, onto the dia-e's own new token.
    inner = K.box_i("x", frozenset(), K.box_e(K.hyp("u", Box(P), ()), ("x",)))
    d = K.dia_e(K.hyp("m", Dia(P), ()), "_0", frozenset({"a"}), frozenset(), inner)
    f = K.freshen(d)
    assert f == reference_freshen(d)
    assert f.premises[1].premises[0].conclusion.position == ("_1",)
    assert [n.token for n in f if n.token] == ["_2", "_1"]
    assert K.check_position_condition(f) == ()
