"""Detour removal for position-decorated natural deduction derivations.

A *segment* is a run of identically-concluded formula occurrences threaded
through case-split conclusions (``or-e``/``dia-e``): it starts at an
occurrence that is not such a conclusion, repeatedly steps from a minor
premise to the case split's conclusion, and ends where no further step is
possible.  A *cut* is a maximal segment that begins at an introduction and
ends as the major premise of an elimination; its *degree* is the degree of
the formula running along it.

The *rank* of a derivation is ``(0, 0)`` when it has no cuts, and otherwise
``(d, n)`` where ``d`` is the highest cut degree and ``n`` the total length
of all cuts of that degree.  Normalization makes one contraction per step
(``_step``).  While cuts remain, it picks a highest-degree cut whose
duplication zones contain no other highest-degree cut, shrinks its segment
to length one with commutative contractions, and removes it with the
matching proper contraction; each such round strictly decreases the rank.
Then each step commutes the first elimination over a case-split conclusion
in post-order, keeping the rank ``(0, 0)``, until no contraction applies.

Every contraction runs through one state (``_Kept``), made by each public
entry (``normalize``, ``reduce_once``, ``contract_proper``,
``contract_commutative``): the entry checks its input and freshens it once,
which gives every witness its own reserved token, and the state holds the
current tree with three things kept of it across contractions: a count of
its labels, outside which a renaming draws fresh discharge labels; the
kernel's pre-order index (``_preorder``); and its cuts.  ``normalize`` and
``reduce_once`` contract only through ``_step``, which selects from them.

A contraction renames binders only where they would capture a label open
in what it moves (``_plugged``, ``_commute_node``); otherwise bodies are
plugged as they are and copies keep their labels, for ``check`` scopes
each discharge to its premise.

A contraction rewrites one subtree and is accepted by a local guard
(``_accepted``) instead of a check of the whole result: by subject
reduction, a rewritten subtree that passes the kernel's check walk, keeps
the conclusion of the subtree it replaces and opens only assumptions open
there leaves every condition above it satisfied.  The path above the
rewritten subtree is rebuilt only after the guard, each node keeping its
conclusion.  A contraction keeps the witness tokens, its
``box-e``/``dia-e`` substitutions included, unless it copies a witness:
``plug`` with two or more bound leaves, or a commutation over the minors of
an ``or-e``.  Only then does a token repeat, and only inside the rewritten
subtree, the only place searched; only then is the whole result freshened
(``_freshened``), a renaming that preserves checking, and indexed and
scanned again.  Otherwise every subtree a contraction does not rewrite is
kept as the same object.  The whole tree is checked only on entry and at
the end, where ``is_normal`` also stands for the absence of cuts.

The accept step walks the replaced subtree once, for its open
assumptions, and the rewritten one twice, for the check walk and for its
index.  That node list serves the witness search, the label count and the
splice into the kept index, which shifts the numbers after the subtree and
the ancestors' subtree ends and scans for cuts and splits only inside it.
The kept cuts give the rank in the trace and the step log and the next
selection, which tests the elimination's duplication zone as a range of
pre-order numbers against a prefix count of the candidates' occurrences.
Paths are built only for what leaves the module.  Every walk is iterative.

A step costs the sizes of the replaced and the rewritten subtree; the
redex's depth, for the path above it; and time linear in the tree, with a
small constant, for selecting a cut and for splicing the index's lists.
Without a clash it builds only the paths to the plugged leaves, or the
split's root and the elimination's copies.  So ``n`` nested detours take
time quadratic in ``n``, and so do ``n`` commutations after the last cut,
each a step of its own.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import Counter
from dataclasses import dataclass

from .syntax import degree
from .kernel import (
    Derivation,
    System,
    check,
    freshen,
    plug,
    _check_walk,
    _fresh_names,
    _label_occurrences,
    _path_of,
    _preorder,
    _rebuilt,
    _relabel_binders,
    _scopes,
    _substitute,
    _walk,
    _witness,
    _with_premises,
    _RULE_TABLE,
    INTRO_RULES,
    ELIM_RULES,
    JOIN_RULES,
)

Occurrence = tuple[int, ...]
Rank = tuple[int, int]

__all__ = [
    "Occurrence",
    "Rank",
    "Segment",
    "Cut",
    "NormalizerError",
    "NotARedex",
    "NotApplicable",
    "RankIncreased",
    "FlavorUnsupported",
    "NotNormal",
    "subtree_at",
    "segments",
    "cuts",
    "rank",
    "contract_proper",
    "contract_commutative",
    "reduce_once",
    "normalize",
    "normalize_steps",
    "is_normal",
    "spine",
    "all_spines",
    "spine_decompose",
]


class NormalizerError(Exception):
    """Base class for normalization errors and broken internal invariants."""


class NotARedex(NormalizerError):
    """The addressed cut is not a length-one introduction/elimination pair."""


class NotApplicable(NormalizerError):
    """The addressed node is not an elimination over a case-split conclusion."""


class RankIncreased(NormalizerError):
    """A normalization round failed to strictly decrease the rank."""


class FlavorUnsupported(NormalizerError):
    """Normalization is only defined for the intuitionistic flavor."""


class NotNormal(NormalizerError):
    """The operation needs a derivation in normal form."""


@dataclass(frozen=True)
class Segment:
    """A maximal run of occurrences sharing one conclusion, leaf-end first."""

    occurrences: tuple[Occurrence, ...]

    @property
    def start(self) -> Occurrence:
        return self.occurrences[0]

    @property
    def end(self) -> Occurrence:
        return self.occurrences[-1]

    def __len__(self) -> int:
        return len(self.occurrences)


@dataclass(frozen=True)
class Cut:
    """A maximal segment from an introduction into an elimination's major slot."""

    segment: Segment
    connective: str
    degree: int


# --- tree addressing -------------------------------------------------------


def subtree_at(d: Derivation, path: Occurrence) -> Derivation:
    """The subderivation whose root is reached by the premise indices in
    ``path``; :class:`IndexError` if an index is negative or past the last
    premise."""
    node = d
    for i in path:
        if i < 0:
            raise IndexError(f"negative premise index {i}")
        node = node.premises[i]
    return node


# --- segments, cuts, rank --------------------------------------------------
#
# Inside the module a node is its pre-order number in ``_preorder``'s index
# ``ix``, a segment the list of its occurrences' numbers and a cut the triple
# ``(segment, connective, degree)``; paths are built only for what leaves it.


def _occurrences(seg: list[int], ix) -> tuple[Occurrence, ...]:
    """The paths of a segment's occurrences, each the one before minus its
    last step."""
    _, parent, slot, *_ = ix
    start = _path_of(seg[0], parent, slot)
    return tuple(start[: len(start) - k] for k in range(len(seg)))


def segments(d: Derivation) -> tuple[Segment, ...]:
    """Every maximal segment, ordered by the position of its starting occurrence.

    Segments cannot start at an ``or-e``/``dia-e`` conclusion; they extend
    from each remaining occurrence through enclosing case-split conclusions
    for as long as the current occurrence fills a minor premise slot.  A
    case-split conclusion therefore lies on one chain per minor premise, so
    the segments cover every occurrence but only partition them in trees
    without such splits.
    """
    ix = _preorder(d)
    return tuple(
        Segment(_occurrences(_segment(i, ix), ix))
        for i, node in enumerate(ix[0])
        if node.rule not in JOIN_RULES
    )


def _segment(i: int, ix) -> list[int]:
    """The segment that starts at node ``i``."""
    nodes, parent, slot, *_ = ix
    seg = [i]
    while i > 0 and slot[i] in _RULE_TABLE[nodes[parent[i]].rule].minors:
        i = parent[i]
        seg.append(i)
    return seg


def cuts(d: Derivation) -> tuple[Cut, ...]:
    """The maximal segments that run from an introduction into an elimination."""
    ix = _preorder(d)
    return tuple(
        Cut(Segment(_occurrences(seg, ix)), fam, deg) for seg, fam, deg in _cuts(ix)
    )


def _cuts(ix, lo: int = 0, hi: int | None = None) -> list[tuple[list[int], str, int]]:
    """The cuts that start at the numbers ``[lo, hi)``, all by default, in
    pre-order of their starts, climbing a segment only from each
    introduction."""
    nodes, parent, slot, *_ = ix
    res = []
    for i in range(lo, len(nodes) if hi is None else hi):
        start = nodes[i]
        fam = _RULE_TABLE[start.rule].intro
        if fam is None:
            continue
        seg = _segment(i, ix)
        top = seg[-1]
        if top == 0 or slot[top] != 0:
            continue
        if _RULE_TABLE[nodes[parent[top]].rule].elim != fam:
            continue
        res.append((seg, fam, degree(start.conclusion.formula)))
    return res


def rank(d: Derivation) -> Rank:
    """``(0, 0)`` when cut-free, else (max cut degree, total length at that degree)."""
    return _rank(_cuts(_preorder(d)))


def _rank(cs) -> Rank:
    if not cs:
        return (0, 0)
    top = max(deg for _, _, deg in cs)
    return (top, sum(len(seg) for seg, _, deg in cs if deg == top))


# --- cut selection ---------------------------------------------------------


def _select(cs, ix) -> list[int]:
    """The segment of a highest-degree cut whose duplication zones hold no
    other highest cut.

    Such a cut always exists, so finding none is a broken invariant
    (:class:`NormalizerError`); contracting it strictly shrinks the rank
    because only cut-free material is ever duplicated.  The zones, the
    subtrees a contraction may copy, are the premises of the introduction
    ``s`` and those of the elimination ``e`` after its major; the second is
    the pre-order range ``[end[e + 1], end[e])``.  A cut's own occurrences
    lie in neither, so a prefix count of all candidates' occurrences finds
    the others'.  Ties break toward the segment end that comes first in
    post-order, then the earliest start (two cuts can share their end at a
    case-split conclusion).

    Only the elimination zone is tested; testing the introduction's too
    would select the same cut.  A segment leaves a subtree only through a
    case-split conclusion, and ``s`` is none, so a candidate with an
    occurrence above ``s`` lies wholly in one premise of ``s``, zones
    included, and so do the candidates that could block it.  That premise,
    a derivation of its own, therefore holds a free candidate (the claim
    above), whose end precedes ``s`` in post-order and so the cut's end: a
    cut blocked only in its introduction zone never wins the tie-break.
    """
    _, parent, _, end, post = ix
    top = max(deg for _, _, deg in cs)
    cands = [seg for seg, _, deg in cs if deg == top]
    before = [0] * (len(end) + 1)  # candidate occurrences at numbers < i
    for seg in cands:
        for o in seg:
            before[o + 1] += 1
    for i in range(len(end)):
        before[i + 1] += before[i]

    def free(seg: list[int]) -> bool:
        e = parent[seg[-1]]
        return before[end[e]] == before[end[e + 1]]

    pool = [seg for seg in cands if free(seg)]
    if not pool:
        raise NormalizerError(
            "every highest cut holds another in its elimination's duplication zone"
        )
    return min(pool, key=lambda seg: (post[seg[-1]], post[seg[0]]))


# --- accepting a contraction ----------------------------------------------


def _witness_tokens(d: Derivation):
    """The tokens of the witnesses of ``d``, in pre-order (see
    ``kernel._witness``)."""
    return (n.token for n in d if _witness(n) is not None)


def _freshened(d: Derivation, new) -> Derivation:
    """``d`` as it is when the witnesses in ``new`` have distinct tokens,
    else ``freshen(d)``.  The walk stops at the first repeat.

    ``new`` is the subtree a contraction rewrote, or its node list.  Before
    the contraction every witness had its own token, and ``new`` is built
    from the material of the subtree it replaces, so a token can repeat only
    inside ``new``.
    """
    seen: set[str] = set()
    for tok in _witness_tokens(new):
        if tok in seen:
            return freshen(d)
        seen.add(tok)
    return d


def _tally(labels: list[str], census: dict[str, int], step: int) -> None:
    """Add ``step`` to the count in ``census`` of each label occurrence in
    ``labels``, dropping a label whose count falls to 0."""
    get = census.get
    for lab in labels:
        k = get(lab, 0) + step
        if k:
            census[lab] = k
        else:
            del census[lab]


def _open_pairs(old: Derivation, bound: frozenset[str] = frozenset()) -> set:
    """The ``(label, content)`` pairs open in ``old`` as ``check`` counts
    them: a leaf is open unless its label is in ``bound`` or a node above
    it in ``old`` discharges it over the premise it stands in."""
    opens = set()
    stack = [(old, bound)]
    while stack:
        n, bound = stack.pop()
        if n.label is not None and n.label not in bound:
            opens.add((n.label, n.conclusion))
        scopes = _RULE_TABLE[n.rule].scopes
        if scopes:
            over = [bound] * len(n.premises)
            for slot, kind, j in scopes:
                over[slot] = over[slot] | (
                    n.discharges[j] if kind == "p" else n.e_discharges
                )
            stack += zip(n.premises, over)
        else:
            stack += ((p, bound) for p in n.premises)
    return opens


def _captures(nodes, moved) -> bool:
    """Whether one of ``nodes`` discharges a label open in the ``(subtree,
    labels bound over it)`` pairs ``moved``, read only if one discharges any."""
    binds = {lab for n in nodes for s in (*n.discharges, n.e_discharges) for lab in s}
    return bool(binds) and not binds.isdisjoint(
        lab for sub, bound in moved for lab, _ in _open_pairs(sub, bound)
    )


class _Kept:
    """The state of a normalization, through which every contraction runs:
    the current tree ``d``, which checks in ``system`` and whose witnesses
    have distinct tokens, and what is kept of it across contractions: the
    label ``census`` (each label's number of occurrences), the pre-order
    index ``ix`` of :func:`kernel._preorder`, the cut list ``cs`` of
    :func:`_cuts` and the numbers ``sp`` of the splits (:func:`_splits`) in
    pre-order, always equal to what they would be if computed afresh from
    ``d``."""

    def __init__(self, d: Derivation, system: System) -> None:
        self.system = system
        self.index(d)
        self.census = Counter(_label_occurrences(self.ix[0]))

    def index(self, d: Derivation) -> None:
        """Make ``d`` the current tree, indexed and scanned for cuts from
        scratch."""
        self.d = d
        self.ix = _preorder(d)
        self.cs = _cuts(self.ix)
        self.sp = [i for i, n in enumerate(self.ix[0]) if _splits(n)]

    def find(self, at: Occurrence) -> tuple[list[int], int]:
        """The numbers of the nodes above ``at``, root first, and of the
        node at it."""
        end = self.ix[3]
        above, a = [], 0
        for k in at:
            above.append(a)
            a += 1
            for _ in range(k):
                a = end[a]
        return above, a

    def replace(self, above: list[int], at: Occurrence, new: Derivation):
        """The current tree with the subtree at ``at`` replaced by ``new``,
        which must conclude what that subtree concludes.  Each node above
        it, numbered ``above``, gets one new premise and keeps its
        conclusion, which that premise leaves unchanged (see
        :func:`_accepted`), and takes its old number in the index; every
        other subtree is kept as is."""
        nodes = self.ix[0]
        for i, k in zip(reversed(above), reversed(at)):
            prems = nodes[i].premises
            new = _with_premises(nodes[i], prems[:k] + (new,) + prems[k + 1 :])
            nodes[i] = new
        return new

    def splice(self, out: Derivation, above: list[int], a: int, sub) -> None:
        """Make ``out``, the result of :meth:`replace`, the current tree:
        the subtree numbered ``a`` is replaced by the one that ``sub``
        indexes, and the nodes above it, numbered ``above``, hold their new
        objects already.

        Only the new subtree is indexed.  If the old subtree took the
        numbers ``[a, b)``, numbers before ``a`` keep their nodes, and the
        nodes above ``a`` shift the end of their subtree and their
        post-order number by the change in size; numbers from ``b`` on
        shift by it, and so do parents among them.  A cut whose start lies
        outside ``[a, b)`` keeps its segment, which runs through the same
        rules and slots, shifted the same way.  A cut's segment lies above
        its start, so only the cuts that start in the new subtree are
        scanned again; they may climb above ``a``.  Splits are scanned in
        the new subtree and at ``a - 1``, which is ``a``'s parent if ``a``
        fills its major slot and is otherwise unchanged.
        """
        nodes, parent, slot, end, post = self.ix
        b = end[a]
        sub_nodes, sub_parent, sub_slot, sub_end, sub_post = sub
        delta = len(sub_nodes) - (b - a)
        low = post[a] - (b - a) + 1  # the old subtree's first post-order number
        cs = self.cs
        lo = bisect_left(cs, a, key=_start)
        rest = cs[bisect_left(cs, b, key=_start) :]
        sp, lo_sp = self.sp, max(a - 1, 0)
        after = sp[bisect_left(sp, b) :]
        if delta:
            for i in above:
                end[i] += delta
                post[i] += delta
            parent[b:] = [p if p < a else p + delta for p in parent[b:]]
            end[b:] = [e + delta for e in end[b:]]
            post[b:] = [q + delta for q in post[b:]]
            rest = [
                ([o + delta if o >= b else o for o in seg], fam, deg)
                for seg, fam, deg in rest
            ]
            after = [i + delta for i in after]
        nodes[a:b] = sub_nodes
        parent[a:b] = [parent[a]] + [p + a for p in sub_parent[1:]]
        slot[a:b] = [slot[a]] + sub_slot[1:]
        end[a:b] = [e + a for e in sub_end]
        post[a:b] = [q + low for q in sub_post]
        cs[lo:] = _cuts(self.ix, a, a + len(sub_nodes)) + rest
        sp[bisect_left(sp, lo_sp) :] = [
            i for i in range(lo_sp, a + len(sub_nodes)) if _splits(nodes[i])
        ] + after
        self.d = out


def _start(cut) -> int:
    """The number of a cut's introduction, the key its list is sorted by."""
    return cut[0][0]


def _entry(d: Derivation, system: System, name: str) -> _Kept:
    """The state of a run of the public entry ``name`` on ``d``, which must
    check in ``system``: its current tree is ``d`` freshened, which gives
    every witness its own reserved token."""
    if not check(d, system).ok:
        raise ValueError(f"{name} requires a derivation that checks")
    return _Kept(freshen(d), system)


def _accepted(st: _Kept, at: Occurrence, new: Derivation, what: str) -> Derivation:
    """``out``, which is the current tree ``d`` of ``st`` with the subtree
    ``old`` at ``at`` replaced by a contraction's ``new``, once a local
    guard accepts ``new``, and freshened if a witness repeats
    (:func:`_freshened`); else :class:`NormalizerError`.  The result
    becomes the current tree of ``st``.

    The guard: ``new`` passes the kernel's check walk, concludes what
    ``old`` concluded, is an existence-assumption leaf exactly when ``old``
    is one, and opens only ``(label, content)`` pairs open in ``old``
    (copies allowed).  Then ``out`` checks, by subject reduction: the nodes
    of ``new`` are checked, and the subtrees beside the path to ``at`` are
    those of ``d``.  Every test ``check`` makes at a node reads only the
    node, its premises' rules and conclusions, and its premises' open maps.
    Above ``at`` the rules and conclusions are those of ``d`` (a node's
    conclusion follows from its data and its premises' conclusions), and
    each open map holds a subset of the pairs it held in ``d``.  Discharges
    still bind only the contents they must, a witness stays fresh for fewer
    assumptions, and no label gains a second content, so every test that
    passed in ``d`` passes in ``out``.  ``freshen`` preserves checking.

    The guard runs before ``out`` is built.  Since ``new`` concludes what
    ``old`` concluded, the conclusion each node above ``at`` would compute
    from its data and its premises is the one it has, so
    :meth:`_Kept.replace` keeps it instead of computing it again; a rewrite
    the guard rejects is never put into a tree, and no node of ``out``
    holds a conclusion other than the one it would compute.

    ``new`` is indexed once; its node list serves the witness search, the
    census and :meth:`_Kept.splice`, and the labels of ``old`` are read off
    the kept index.  A whole-tree freshen indexes the result from scratch.
    """
    nodes, end = st.ix[0], st.ix[3]
    above, a = st.find(at)
    old = nodes[a]
    was_open = _open_pairs(old)
    violations, opens = _check_walk(new, st.system)
    problems = [v.message for v in violations]
    if new.conclusion != old.conclusion:
        problems.append("the rewritten subtree changed its conclusion")
    if (new.rule == "ehyp") != (old.rule == "ehyp"):
        problems.append("the rewritten subtree changed an existence-assumption leaf")
    problems += [
        f"assumption {lab!r} is opened"
        for lab, contents in opens.items()
        for content in contents
        if (lab, content) not in was_open
    ]
    if problems:
        raise NormalizerError(
            f"{what} contraction broke the derivation: " + "; ".join(problems[:3])
        )
    out = st.replace(above, at, new)
    sub = _preorder(new)
    got = _freshened(out, sub[0])
    _tally(_label_occurrences(nodes[a : end[a]]), st.census, -1)
    _tally(_label_occurrences(sub[0]), st.census, 1)
    if got is out:
        st.splice(out, above, a, sub)
    else:
        st.index(got)
    return got


# --- proper contraction ----------------------------------------------------


def _plugged(body: Derivation, fresh, *plugs) -> Derivation:
    """``body`` with each ``(labels, replacement, kind)`` of ``plugs`` plugged
    in turn, its binders renamed from ``fresh`` first if one could capture."""
    if _captures(body, [(r, frozenset()) for _, r, _ in plugs]):
        body = _relabel_binders(body, fresh)
    for labels, replacement, kind in plugs:
        body = plug(body, labels, replacement, kind)
    return body


def _contract_proper_core(
    d: Derivation, elim_path: Occurrence, census: dict[str, int]
) -> Derivation:
    """The rewrite of the introduction/elimination pair rooted at
    ``elim_path``, which takes its place in ``d``.  Fresh discharge labels
    avoid the labels of ``d``, the keys of its label ``census``."""
    R = subtree_at(d, elim_path)
    I = R.premises[0]
    fresh = _fresh_names("l", census)
    r = R.rule
    if r == "and-e1":
        new = I.premises[0]
    elif r == "and-e2":
        new = I.premises[1]
    elif r == "imp-e":
        new = _plugged(I.premises[0], fresh, (I.discharges[0], R.premises[1], "p"))
    elif r == "or-e":
        if I.rule == "or-i1":
            slot, labels = 1, R.discharges[0]
        else:
            slot, labels = 2, R.discharges[1]
        new = _plugged(R.premises[slot], fresh, (labels, I.premises[0], "p"))
    elif r == "box-e":
        alpha = I.conclusion.position
        witness = alpha + (I.token,)
        new = _substitute(I.premises[0], witness, alpha + tuple(R.beta or ()))
        if I.e_discharges:
            new = _plugged(new, fresh, (I.e_discharges, R.premises[1], "e"))
    elif r == "dia-e":
        alpha = I.conclusion.position
        witness = alpha + (R.token,)
        mapped = _substitute(R.premises[1], witness, alpha + tuple(I.beta or ()))
        plugs = [(R.e_discharges, I.premises[1], "e")] if R.e_discharges else []
        new = _plugged(mapped, fresh, *plugs, (R.discharges[0], I.premises[0], "p"))
    else:  # pragma: no cover - guarded by the caller
        raise NotARedex(f"no proper contraction for rule {r!r}")
    return new


def contract_proper(d: Derivation, cut: Cut, system: System) -> Derivation:
    """Remove a length-one cut; the whole rewritten derivation is returned.

    Raises :class:`NotARedex` unless the cut is a single occurrence that is
    an introduction filling the major slot of a matching elimination.  The
    input must check; the result checks with the same conclusion (open
    assumptions may gain duplicates where subderivations are copied).
    """
    at = _redex_at(d, cut.segment.occurrences)
    return _contract_proper(_entry(d, system, "contract_proper"), at)


def _redex_at(d: Derivation, occ: tuple[Occurrence, ...]) -> Occurrence:
    """The elimination path of a contractible length-one cut segment ``occ``,
    else :class:`NotARedex`."""
    if len(occ) != 1:
        raise NotARedex(
            f"cut segment has length {len(occ)}; shrink it to 1 with "
            "commutative contractions first"
        )
    o = occ[0]
    if not o or o[-1] != 0:
        raise NotARedex("the cut occurrence does not fill a major premise slot")
    try:
        R = subtree_at(d, o[:-1])
        I = R.premises[0]
    except IndexError:
        raise NotARedex("the cut occurrence is not a position in this derivation")
    fam = _RULE_TABLE[I.rule].intro
    if fam is None or _RULE_TABLE[R.rule].elim != fam:
        raise NotARedex(f"{I.rule!r} under {R.rule!r} is not a contractible pair")
    return o[:-1]


def _contract_proper(st: _Kept, at: Occurrence) -> Derivation:
    """:func:`contract_proper` of the redex whose elimination is at ``at``
    in the current tree of ``st``, with :func:`_accepted`'s result."""
    new = _contract_proper_core(st.d, at, st.census)
    return _accepted(st, at, new, "proper")


# --- commutative contraction -----------------------------------------------


def _commute_node(R: Derivation, forbidden) -> Derivation:
    """Push the elimination ``R`` into the minors of its case-split major.

    The side premises of ``R`` move under the discharges at the major's
    root.  Only if one of those could capture a label open in them (in
    ``R``) are the major's binders renamed, with fresh names outside
    ``forbidden``, which must hold the labels of ``R``; the copies of ``R``
    keep their labels."""
    J, sides = R.premises[0], R.premises[1:]
    bound = [frozenset()] * len(R.premises)
    for slot, labels, _ in _scopes(R):
        bound[slot] |= labels
    if _captures([J], zip(sides, bound[1:])):
        J = _relabel_binders(J, _fresh_names("l", forbidden))
    prems = list(J.premises)
    for s in _RULE_TABLE[J.rule].minors:
        prems[s] = _rebuilt(R, (J.premises[s],) + sides)
    return _rebuilt(J, prems)


def contract_commutative(d: Derivation, at: Occurrence, system: System) -> Derivation:
    """Commute the elimination at ``at`` with the case split above its major.

    Raises :class:`NotApplicable` unless the addressed node is an elimination
    whose major premise is an ``or-e``/``dia-e`` conclusion.  The conclusion
    is preserved; every segment running through that conclusion shrinks by
    one, and side premises of the elimination are duplicated per minor, the
    copies keeping their discharge labels (see :func:`_commute_node`).
    """
    _require_commutable(d, at)
    st = _entry(d, system, "contract_commutative")
    return _contract_commutative(st, at)


def _require_commutable(d: Derivation, at: Occurrence) -> None:
    try:
        R = subtree_at(d, at)
    except IndexError:
        raise NotApplicable(f"{'.'.join(map(str, at)) or 'root'} is not a position")
    if R.rule not in ELIM_RULES:
        raise NotApplicable(f"node at {'.'.join(map(str, at)) or 'root'} is {R.rule}, "
                            "not an elimination")
    if R.premises[0].rule not in JOIN_RULES:
        raise NotApplicable(
            f"the major premise is {R.premises[0].rule}, not a case-split conclusion"
        )


def _contract_commutative(st: _Kept, at: Occurrence) -> Derivation:
    """:func:`contract_commutative` at ``at`` of the current tree of ``st``,
    drawing any fresh labels outside its label census (see
    :func:`_commute_node`), with :func:`_accepted`'s result."""
    new = _commute_node(subtree_at(st.d, at), st.census)
    return _accepted(st, at, new, "commutative")


# --- normalization ---------------------------------------------------------


def is_normal(d: Derivation) -> bool:
    """True iff no elimination's major premise is an introduction or a
    case-split conclusion anywhere — i.e. no contraction applies."""
    return not any(
        n.rule in ELIM_RULES
        and (n.premises[0].rule in INTRO_RULES or n.premises[0].rule in JOIN_RULES)
        for n in d
    )


def _splits(n: Derivation) -> bool:
    """Whether ``n`` is an elimination whose major is a case-split conclusion."""
    return n.rule in ELIM_RULES and n.premises[0].rule in JOIN_RULES


def _step(st: _Kept) -> tuple[str, Occurrence] | None:
    """Make the strategy's next contraction on ``st`` and return its kind
    and elimination path, or ``None`` when no contraction applies.

    With cuts, the step takes the cut :func:`_select` picks: its proper
    contraction if the segment has length one, else the commutation at the
    segment's end.  Selecting again then picks the same cut, shortened by
    one.  The commutation keeps every cut's start, shortens only the
    segments through the split, and copies side premises that hold no
    highest cut, the selected one being free.  A zone holds an occurrence
    of a cut exactly when it holds its start, so every cut stays blocked
    or free.  The new end, the elimination's copy in the cut's minor, comes
    in post-order before the ends of the free cuts that lost to the old
    one: they ended later, or there through a later minor, since one
    through an earlier minor would have won on its start.

    In a cut-free tree, the step commutes the first split in post-order:
    the last kept split, in pre-order, of the leading run in which each lies
    in the subtree of the one before.
    """
    _, parent, slot, end, _ = st.ix
    if st.cs:
        seg = _select(st.cs, st.ix)
        at = _path_of(parent[seg[-1]], parent, slot)
        if len(seg) == 1:
            _contract_proper(st, at)
            return "proper", at
        _contract_commutative(st, at)
        return "commutative", at
    sp = st.sp
    if not sp:
        return None
    k = 0
    while k + 1 < len(sp) and sp[k + 1] < end[sp[k]]:
        k += 1
    a = sp[k]
    at = _path_of(a, parent, slot)
    _contract_commutative(st, at)
    return "commutative", at


def normalize_steps(
    d: Derivation, system: System
) -> tuple[Derivation, list[Rank], list[tuple[int, str, Occurrence, Rank]]]:
    """Like :func:`normalize`, also returning one log entry per applied
    contraction: (round number, kind, elimination path, rank afterwards).
    Each commutation after the last cut is a round of its own."""
    _require_intuitionistic(system)
    st = _entry(d, system, "normalize")
    trace: list[Rank] = [_rank(st.cs)]
    steps: list[tuple[int, str, Occurrence, Rank]] = []
    rounds, in_round = 0, False
    while (step := _step(st)) is not None:
        kind, at = step
        rk = _rank(st.cs)
        rounds += not in_round
        steps.append((rounds, kind, at, rk))
        # A commutation that leaves a cut has shortened the selected one.
        in_round = kind == "commutative" and rk != (0, 0)
        if kind == "proper":
            if not rk < trace[-1]:
                raise RankIncreased(
                    f"round {rounds} went from rank {trace[-1]} to {rk}"
                )
            trace.append(rk)
    cur = st.d
    rep = check(cur, system)
    if not rep.ok:
        raise NormalizerError(
            "normalization broke the derivation: "
            + "; ".join(v.message for v in rep.violations[:3])
        )
    # A cut's top is the major premise of an elimination over an
    # introduction or a case split, so a normal derivation has no cut.
    if not is_normal(cur):
        raise NormalizerError("normalization finished on a non-normal derivation")
    if cur.conclusion != d.conclusion:
        raise NormalizerError("normalization changed the conclusion")
    return cur, trace, steps


def normalize(d: Derivation, system: System) -> tuple[Derivation, list[Rank]]:
    """Contract until no contraction applies, intuitionistic flavor only.

    Returns the normal derivation and the rank trace: the initial rank
    followed by the rank after each round (a round = the commutative
    contractions that shrink the selected cut to length one, then its proper
    contraction).  The trace is strictly decreasing and ends at ``(0, 0)``;
    the commutations that follow the last cut do not add entries.
    """
    out, trace, _ = normalize_steps(d, system)
    return out, trace


def reduce_once(d: Derivation, system: System) -> Derivation | None:
    """Apply the first contraction step of :func:`normalize_steps`, or
    return ``None`` when the derivation is already normal."""
    _require_intuitionistic(system)
    st = _entry(d, system, "reduce_once")
    return None if _step(st) is None else st.d


def _require_intuitionistic(system: System) -> None:
    if system.flavor != "intuitionistic":
        raise FlavorUnsupported(
            "normalization is defined for the intuitionistic flavor only"
        )


# --- spines ----------------------------------------------------------------


def _spine_options(n: Derivation) -> tuple[int, ...]:
    """The premises a spine continues through: the major of an elimination,
    both premises of ``and-i``, else the one proof premise, none at a leaf."""
    if n.rule in ("hyp", "ehyp"):
        return ()
    return (0, 1) if n.rule == "and-i" else (0,)


def spine(d: Derivation) -> tuple[Occurrence, ...]:
    """The unique maximal path of occurrences from a leaf to the root that
    enters every elimination through its major premise.

    Walks down from the root: eliminations continue through the major
    premise, absurdity steps through their premise, introductions through
    their proof premise.  Raises ``ValueError`` below a conjunction
    introduction, where the path branches and is not unique.
    """
    node = d
    path: Occurrence = ()
    acc = [path]
    while True:
        opts = _spine_options(node)
        if not opts:
            break
        if len(opts) > 1:
            raise ValueError(
                "the spine is not unique: a conjunction introduction branches"
            )
        path = path + (opts[0],)
        node = node.premises[opts[0]]
        acc.append(path)
    return tuple(reversed(acc))


def all_spines(d: Derivation) -> tuple[tuple[Occurrence, ...], ...]:
    """Every maximal leaf-to-root path (branching at multi-premise
    introductions); each path is ordered leaf first."""

    def enter(node: Derivation, path: Occurrence):
        return [(node.premises[i], path + (i,)) for i in _spine_options(node)], path

    def leave(_node: Derivation, below, path: Occurrence) -> list[list[Occurrence]]:
        spines = [s for child in below for s in child] or [[]]
        for s in spines:
            s.append(path)
        return spines

    return tuple(tuple(p) for p in _walk(d, enter, leave, ()))


def spine_decompose(
    d: Derivation,
) -> tuple[tuple[Occurrence, ...], tuple[Occurrence, ...], tuple[Occurrence, ...]]:
    """Split the spine of a normal derivation into its elimination part
    (leaf and elimination conclusions), minimum part (absurdity-step
    conclusions), and introduction part — in that order along the spine.

    Raises :class:`NotNormal` when the derivation is not normal or the three
    phases do not appear in order.
    """
    if not is_normal(d):
        raise NotNormal("spine decomposition needs a normal derivation")
    s = spine(d)
    phases = [
        1 if r in ("bot-i", "bot-c") else 2 if r in INTRO_RULES else 0
        for r in (subtree_at(d, occ).rule for occ in s)
    ]
    if any(a > b for a, b in zip(phases, phases[1:])):
        raise NotNormal("spine phases out of order; derivation is not normal")
    elim, minimum, intro = (
        tuple(o for o, p in zip(s, phases) if p == k) for k in range(3)
    )
    return elim, minimum, intro
