"""Finite tree models and bounded consequence probes.

Worlds form a finite tree of natural-number sequences; each logic reads its
accessibility off the child order (children, reflexive closure, transitive
closure, or both).  The serial logics ``d``/``d4`` complete every leaf by an
infinite chain of single successors with the leaf's valuation, along which
truth is uniform (:func:`chain_truth`).  An evaluation sends positions to
worlds, totally for ``d``/``t``/``d4``/``s4``, possibly partially for
``k``/``k4``.  The enumerators list models and evaluations in a fixed order.
The probe engine, :func:`find_countermodel`, finds the first refutation in
that order one tree shape at a time, only the first shape of each
isomorphism class, and in ``k``/``d``/``t`` only shapes as deep as the probe
can see: it plans each shape's evaluations once, keeps the plans between
probes, and computes truth as bitsets over blocks of valuations.  A refuted
probe comes with that countermodel; an unrefuted one only says that no
refutation exists within the bounds.
"""

from __future__ import annotations

import functools
import itertools
from collections.abc import Callable, Iterable, Iterator, Mapping, Sequence
from dataclasses import dataclass, field

from ._sexpr import Fault, atom, atom_at, brief, read_one, skip
from .kernel import (
    _LABEL_RE, _STEP_KIND, LOGICS, PARTIAL_LOGICS, Derivation, System, check,
)
from .syntax import (
    And,
    Atom,
    Bottom,
    Box,
    Dia,
    EFormula,
    Formula,
    Imp,
    Or,
    PFormula,
    Position,
    init_set,
    step_holds,
)

__all__ = [
    "Node",
    "TreeModel",
    "Evaluation",
    "Bounds",
    "SemanticsError",
    "UndefinedPosition",
    "NotAPrefix",
    "SERIAL_LOGICS",
    "atom_names",
    "validate_model",
    "accessible",
    "holds",
    "chain_truth",
    "validate_evaluation",
    "sat",
    "sat_left",
    "sat_right",
    "node_subtract",
    "enumerate_models",
    "enumerate_evaluations",
    "consequence_probe",
    "find_countermodel",
    "soundness_probe",
    "parse_model",
    "print_model",
]


Node = tuple[int, ...]

#: Logics whose models must not have leaves; they carry serial completions.
SERIAL_LOGICS = frozenset({"d", "d4"})


class SemanticsError(Exception):
    """Base class for semantic-layer errors."""


class UndefinedPosition(SemanticsError):
    """A total-logic satisfaction query hit a position the evaluation misses."""

    def __init__(self, position: Position) -> None:
        super().__init__(f"evaluation undefined at position {position!r}")
        self.position = position


class NotAPrefix(SemanticsError):
    """World subtraction was asked for a non-prefix pair."""


# ---------------------------------------------------------------------------
# Domain types
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TreeModel:
    """A finite tree of worlds with a valuation.

    ``nodes`` must be prefix-closed and contain the root ``()``.  When
    ``serial_completion`` is set, every leaf ``l`` is conceptually
    extended by the infinite chain ``l, l+(0,), l+(0,0), ...`` whose
    valuation is constantly the leaf's valuation; those chain worlds
    count as part of the structure.
    """

    nodes: frozenset[Node]
    valuation: Mapping[Node, frozenset[str]]
    serial_completion: bool = False

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "nodes", frozenset(tuple(n) for n in self.nodes)
        )
        object.__setattr__(
            self,
            "valuation",
            {
                tuple(n): frozenset(v)
                for n, v in dict(self.valuation).items()
                if frozenset(v)
            },
        )

    def atoms_at(self, world: Node) -> frozenset[str]:
        """The atoms true at an in-tree world (empty when unlisted)."""
        return self.valuation.get(world, frozenset())


@dataclass(frozen=True)
class Evaluation:
    """A finite, prefix-closed map from positions to worlds.

    ``partial_allowed`` distinguishes the partial reading (``k``/``k4``,
    where satisfaction conditions on definedness) from the total one.
    """

    entries: Mapping[Position, Node]
    partial_allowed: bool = False

    def __post_init__(self) -> None:
        object.__setattr__(
            self,
            "entries",
            {tuple(p): tuple(n) for p, n in dict(self.entries).items()},
        )

    def defined(self, position: Position) -> bool:
        return tuple(position) in self.entries

    def world(self, position: Position) -> Node | None:
        return self.entries.get(tuple(position))


@dataclass(frozen=True)
class Bounds:
    """Search bounds for the enumerators.

    ``max_depth`` bounds tree height (0 keeps just the root),
    ``max_branching`` the child count per world, and ``num_atoms`` the
    proposition supply.  Each is an ``int`` (not a ``bool``): a ``TypeError``
    names the field that is not.
    """

    max_depth: int
    max_branching: int
    num_atoms: int

    def __post_init__(self) -> None:
        for name in ("max_depth", "max_branching", "num_atoms"):
            value = getattr(self, name)
            if not isinstance(value, int) or isinstance(value, bool):
                raise TypeError(f"{name} must be an int, not {type(value).__name__}")
        if self.max_depth < 0:
            raise ValueError("max_depth must be >= 0")
        for name in ("max_branching", "num_atoms"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")


_ATOM_BASE = "pqrstuvw"


def atom_names(count: int) -> tuple[str, ...]:
    """The canonical proposition names used by the model enumerator."""
    return tuple(
        _ATOM_BASE[i] if i < len(_ATOM_BASE) else f"a{i}" for i in range(count)
    )


# ---------------------------------------------------------------------------
# Structure helpers
# ---------------------------------------------------------------------------


def _check_logic(logic: str) -> None:
    if logic not in _STEP_KIND:
        raise ValueError(f"unknown logic {logic!r}; expected one of {LOGICS}")


def _depth_order(n: Node) -> tuple[int, Node]:
    return (len(n), n)


@functools.lru_cache(maxsize=256)
def _shape(nodes: frozenset[Node]) -> tuple[tuple[Node, ...], tuple[Node, ...]]:
    """A node set in (depth, node) order, and its leaves in that order;
    cached, as is ``_step_table``, for ``holds`` and the enumerators."""
    ordered = tuple(sorted(nodes, key=_depth_order))
    parents = {n[:-1] for n in nodes if n}
    return ordered, tuple(n for n in ordered if n not in parents)


def _tail_leaf(m: TreeModel, world: Node) -> Node | None:
    """The leaf whose completion chain contains ``world`` (None if no such)."""
    if world in m.nodes:
        return None
    probe = world
    while probe not in m.nodes:
        if not probe or probe[-1] != 0:
            return None
        probe = probe[:-1]
    return probe if probe in _shape(m.nodes)[1] else None


def _in_structure(m: TreeModel, world: Node) -> bool:
    if world in m.nodes:
        return True
    return m.serial_completion and _tail_leaf(m, world) is not None


def _step_targets(
    tree: tuple[Node, ...], chains: tuple[Node, ...], kind: str, world: Node
) -> tuple[Node, ...]:
    """Worlds one ``kind``-step from ``world``, completion chains included.

    ``tree`` is in (depth, node) order; ``chains`` holds the first world of
    each completion chain, in leaf order.  A chain's theory is uniform, so
    that world stands in for all the chain worlds a step could reach.
    """
    ahead = tree + chains if world in tree else (world, world + (0,))
    return tuple(t for t in ahead if step_holds(kind, world, t))


@functools.lru_cache(maxsize=256)
def _step_table(
    nodes: frozenset[Node], serial: bool, kind: str
) -> dict[Node, tuple[Node, ...]]:
    """``_step_targets`` of every in-tree world of one structure."""
    ordered, leaves = _shape(nodes)
    chains = tuple(leaf + (0,) for leaf in leaves if serial)
    return {w: _step_targets(ordered, chains, kind, w) for w in ordered}


# ---------------------------------------------------------------------------
# Validity and truth
# ---------------------------------------------------------------------------


def validate_model(m: TreeModel, logic: str) -> bool:
    """Whether ``m`` is a well-formed model for ``logic``.

    Requires natural-number worlds, prefix closure with the root
    present, a valuation confined to the tree, and — for the serial
    logics — the serial completion flag.
    """
    _check_logic(logic)
    for n in m.nodes:
        if not all(isinstance(i, int) and i >= 0 for i in n):
            return False
        if n and n[:-1] not in m.nodes:
            return False
    if () not in m.nodes:
        return False
    if any(k not in m.nodes for k in m.valuation):
        return False
    if logic in SERIAL_LOGICS and not m.serial_completion:
        return False
    return True


def accessible(m: TreeModel, logic: str, s: Node, t: Node) -> bool:
    """Whether ``t`` is accessible from ``s`` under ``logic``'s relation."""
    _check_logic(logic)
    s, t = tuple(s), tuple(t)
    if not (_in_structure(m, s) and _in_structure(m, t)):
        return False
    return step_holds(_STEP_KIND[logic], s, t)


def chain_truth(leaf_valuation: Iterable[str], logic: str, f: Formula) -> bool:
    """Truth of ``f`` along a constant single-successor chain.

    Every chain world has the same atoms and exactly the later chain
    worlds ahead of it, so box and diamond both reduce to the body: the
    chain is :func:`_truths`' one slot past no tree worlds.  Only the
    serial logics have such chains.
    """
    if logic not in SERIAL_LOGICS:
        raise ValueError(
            f"completion chains only arise for {sorted(SERIAL_LOGICS)}, "
            f"not {logic!r}"
        )
    atoms = {name: [1] for name in leaf_valuation}
    val = _truths(_subformulas([f]), atoms, 1, [], _STEP_KIND[logic], 1)
    return val[id(f)] == [1]


def holds(m: TreeModel, logic: str, world: Node, f: Formula) -> bool:
    """Kripke truth of ``f`` at ``world`` in ``m`` under ``logic``."""
    _check_logic(logic)
    world = tuple(world)
    if world not in m.nodes:
        leaf = _tail_leaf(m, world)
        if leaf is None or not m.serial_completion:
            raise ValueError(f"world {world!r} is not in the structure")
        return chain_truth(m.atoms_at(leaf), logic, f)
    steps = _step_table(m.nodes, m.serial_completion, _STEP_KIND[logic])
    return _holds(m, logic, steps, world, f)


def _holds(
    m: TreeModel,
    logic: str,
    steps: Mapping[Node, Sequence[Node]],
    world: Node,
    f: Formula,
) -> bool:
    """``holds`` once the logic is known valid and ``steps`` is the step
    table of ``m``; ``world`` is in the structure."""
    if world not in steps:
        return chain_truth(m.atoms_at(_tail_leaf(m, world)), logic, f)
    kind = type(f)
    if kind is Atom:
        return f.name in m.atoms_at(world)
    if kind is Imp:
        return (not _holds(m, logic, steps, world, f.left)) or _holds(
            m, logic, steps, world, f.right
        )
    if kind is Box:
        for t in steps[world]:
            if not _holds(m, logic, steps, t, f.body):
                return False
        return True
    if kind is Dia:
        for t in steps[world]:
            if _holds(m, logic, steps, t, f.body):
                return True
        return False
    if kind is And:
        return _holds(m, logic, steps, world, f.left) and _holds(
            m, logic, steps, world, f.right
        )
    if kind is Or:
        return _holds(m, logic, steps, world, f.left) or _holds(
            m, logic, steps, world, f.right
        )
    if kind is Bottom:
        return False
    raise TypeError(f"not a formula: {f!r}")


def validate_evaluation(rho: Evaluation, m: TreeModel, logic: str) -> bool:
    """Whether ``rho`` is a well-formed evaluation into ``m`` for ``logic``.

    Checks that partiality is claimed exactly for the partial logics,
    that the domain is prefix-closed, that every value lies in the
    structure, and that each one-step pair of positions is sent to a
    pair of worlds related by the logic's step relation.
    """
    _check_logic(logic)
    if rho.partial_allowed != (logic in PARTIAL_LOGICS):
        return False
    kind = _STEP_KIND[logic]
    for pos, world in rho.entries.items():
        if pos and pos[:-1] not in rho.entries:
            return False
        if not _in_structure(m, world):
            return False
        if pos and not step_holds(kind, rho.entries[pos[:-1]], world):
            return False
    return True


# ---------------------------------------------------------------------------
# Satisfaction
# ---------------------------------------------------------------------------


def sat(m: TreeModel, logic: str, rho: Evaluation, pf: PFormula) -> bool:
    """Total satisfaction: truth of the formula at the position's world."""
    if not isinstance(pf, PFormula):
        raise TypeError(
            "total satisfaction judges decorated formulas; existence "
            "assumptions belong to the partial reading"
        )
    world = rho.world(pf.position)
    if world is None:
        raise UndefinedPosition(pf.position)
    return holds(m, logic, world, pf.formula)


def sat_left(
    m: TreeModel, logic: str, rho: Evaluation, content: PFormula | EFormula
) -> bool:
    """Assumption-side satisfaction under a possibly partial evaluation.

    A decorated formula needs its position defined *and* true; an
    existence assumption needs exactly definedness.
    """
    if isinstance(content, EFormula):
        return rho.defined(content.position)
    world = rho.world(content.position)
    return world is not None and holds(m, logic, world, content.formula)


def sat_right(m: TreeModel, logic: str, rho: Evaluation, pf: PFormula) -> bool:
    """Conclusion-side satisfaction: truth wherever the position is defined."""
    world = rho.world(pf.position)
    return world is None or holds(m, logic, world, pf.formula)


def node_subtract(v: Node, u: Node) -> Node:
    """The unique ``t`` with ``u + t == v``; requires ``u`` prefix of ``v``."""
    v, u = tuple(v), tuple(u)
    if v[: len(u)] != u:
        raise NotAPrefix(f"{u!r} is not a prefix of {v!r}")
    return v[len(u):]


# ---------------------------------------------------------------------------
# Enumerators
# ---------------------------------------------------------------------------


def _shape_sets(max_depth: int, max_branching: int) -> list[frozenset[Node]]:
    """All tree shapes within the bounds, as node sets.

    Child slots are independent: each of the ``max_branching`` indices
    may be absent or carry any shape one level shallower, so index 1 can
    be occupied without index 0.
    """
    if max_depth == 0:
        return [frozenset({()})]
    subs = _shape_sets(max_depth - 1, max_branching)
    options: list[frozenset[Node] | None] = [None, *subs]
    shapes = []
    for combo in itertools.product(options, repeat=max_branching):
        nodes = {()}
        for index, sub in enumerate(combo):
            if sub is not None:
                nodes.update((index, *n) for n in sub)
        shapes.append(frozenset(nodes))
    return shapes


def _canonical_shapes(max_depth: int, max_branching: int) -> tuple:
    """Every shape within the bounds, ordered by size then node list, as its
    worlds in (depth, node) order and the child indices of each world.

    Built afresh on each call: :func:`enumerate_models` sweeps it, and the
    probe engine keeps only :func:`_class_shapes` of it.
    """
    shapes = []
    for ns in sorted(
        (sorted(s, key=_depth_order) for s in _shape_sets(max_depth, max_branching)),
        key=lambda ns: (len(ns), ns),
    ):
        kids = [tuple(j for j, c in enumerate(ns) if c and c[:-1] == w) for w in ns]
        shapes.append((tuple(ns), tuple(kids)))
    return tuple(shapes)


@functools.lru_cache(maxsize=32)
def _class_shapes(max_depth: int, max_branching: int) -> tuple:
    """The first shape of each isomorphism class of rooted trees among
    :func:`_canonical_shapes`, in that order; cached, and shared by every
    logic and every depth a probe reaches.

    A world's canonical form is the sorted tuple of its children's forms,
    built leaves-up; two shapes are isomorphic when their roots' agree.
    """
    seen, shapes = set(), []
    for nodes, kids in _canonical_shapes(max_depth, max_branching):
        form: list = [()] * len(nodes)
        for k in range(len(nodes) - 1, -1, -1):
            form[k] = tuple(sorted(form[c] for c in kids[k]))
        if form[0] not in seen:
            seen.add(form[0])
            shapes.append((nodes, kids))
    return tuple(shapes)


@functools.cache
def _pattern(bits: int) -> tuple[int, ...]:
    """Every valuation of ``bits`` bits at once: bit ``j`` of entry ``i`` is
    bit ``i`` of ``j``.  Cached; ``bits`` is at most ``_CHUNK_BITS``."""
    if not bits:
        return ()
    half = 1 << bits - 1
    return (*(p | p << half for p in _pattern(bits - 1)), ((1 << half) - 1) << half)


def _valuation(nodes: Sequence[Node], names: Sequence[str], mask: int) -> dict:
    """Bit ``k * len(names) + i`` of ``mask`` puts ``names[i]`` at ``nodes[k]``."""
    width = len(names)
    return {
        w: frozenset(a for i, a in enumerate(names) if mask >> (k * width + i) & 1)
        for k, w in enumerate(nodes)
    }


def enumerate_models(b: Bounds, logic: str) -> Iterator[TreeModel]:
    """All models within the bounds, in a fixed deterministic order.

    Shapes are ordered by size then node list; valuations sweep a
    bitmask over (world, atom) pairs.  The serial logics get the
    completion flag set on every model.
    """
    _check_logic(logic)
    names = atom_names(b.num_atoms)
    serial = logic in SERIAL_LOGICS
    for nodes, _ in _canonical_shapes(b.max_depth, b.max_branching):
        for mask in range(1 << (len(nodes) * len(names))):
            yield TreeModel(frozenset(nodes), _valuation(nodes, names, mask), serial)


def _prefix_closed_subsets(
    positions: list[Position],
) -> Iterator[list[Position]]:
    """All prefix-closed subsets, smallest first, then lexicographic."""
    for size in range(len(positions) + 1):
        for combo in itertools.combinations(positions, size):
            chosen = set(combo)
            if all(p[:-1] in chosen for p in combo if p):
                yield list(combo)


def _assignments(domain: list[Position], targets: Callable) -> list[dict]:
    """Maps of ``domain`` sending the root position to the root world and
    each other position to a ``targets`` step from its parent's world, in
    lexicographic order of the choices."""
    maps: list[dict[Position, Node]] = [{}]
    for pos in domain:
        maps = [
            {**acc, pos: world}
            for acc in maps
            for world in (targets(acc[pos[:-1]]) if pos else [()])
        ]
    return maps


def enumerate_evaluations(
    m: TreeModel, positions: Iterable[Position], logic: str
) -> Iterator[Evaluation]:
    """All evaluations of ``positions`` into ``m`` valid for ``logic``.

    The root position is anchored at the root world.  For the partial
    logics every prefix-closed subdomain is enumerated as well, the
    empty evaluation included; the total logics must cover every
    position.  Order is deterministic.
    """
    _check_logic(logic)
    wanted = sorted({tuple(p) for p in positions}, key=_depth_order)
    closed = set(wanted)
    for p in wanted:
        if p and p[:-1] not in closed:
            raise ValueError(f"positions are not prefix-closed at {p!r}")
    kind, partial = _STEP_KIND[logic], logic in PARTIAL_LOGICS
    table = _step_table(m.nodes, m.serial_completion, kind)

    def targets(world: Node) -> tuple[Node, ...]:
        if world in table:
            return table[world]
        return _step_targets((), (), kind, world)  # a completion-chain world

    for domain in _prefix_closed_subsets(wanted) if partial else [wanted]:
        for entries in _assignments(domain, targets):
            yield Evaluation(entries, partial_allowed=partial)


# ---------------------------------------------------------------------------
# Probes
# ---------------------------------------------------------------------------


#: The probe engine sweeps ``2 ** _CHUNK_BITS`` valuations at a time, so a
#: truth bitset never grows past that many bits.
_CHUNK_BITS = 16


def _subformulas(roots: Iterable[Formula]) -> list[Formula]:
    """The subformula objects of ``roots``, each once and after its parts;
    on an explicit stack and by identity, so any depth will do."""
    order, seen, stack = [], set(), [(f, False) for f in roots]
    while stack:
        g, ready = stack.pop()
        if ready:
            order.append(g)
        elif id(g) not in seen:
            seen.add(id(g))
            stack.append((g, True))
            if isinstance(g, (And, Or, Imp)):
                stack += ((g.left, False), (g.right, False))
            elif isinstance(g, (Box, Dia)):
                stack.append((g.body, False))
            elif not isinstance(g, (Atom, Bottom)):
                raise TypeError(f"not a formula: {g!r}")
    return order


def _truths(
    order: list[Formula], atoms: dict[str, list[int]], full: int, kids: list, kind: str,
    slots: int,
) -> dict[int, list[int]]:
    """Truth of each formula of ``order`` (keyed by identity) at each of
    ``slots`` slots, as bitsets over a block of valuations (``full``: all
    true); an atom missing from ``atoms`` is false everywhere.

    Slot ``k < len(kids)`` is a tree world with children ``kids[k]``; a
    later slot is a completion chain, the child of its leaf, where box and
    diamond reduce to the body.  A box takes the body at each child and,
    if reflexive, at the world; if transitive, also the box at each child.
    """
    reflexive = kind in ("succ-refl", "refl-trans")
    transitive = kind in ("trans", "refl-trans")
    zero = [0] * slots
    val: dict[int, list[int]] = {}
    for g in order:
        t = type(g)
        if t is Atom or t is Bottom:
            v = atoms.get(g.name, zero) if t is Atom else zero
        elif t is Box or t is Dia:
            body = val[id(g.body)]
            if t is Dia:
                body = [full ^ x for x in body]
            v = body[:]
            for k in range(len(kids) - 1, -1, -1):
                x = body[k] if reflexive else full
                for c in kids[k]:
                    x &= body[c] & v[c] if transitive else body[c]
                v[k] = x
            if t is Dia:
                v = [full ^ x for x in v]
        else:
            pairs = zip(val[id(g.left)], val[id(g.right)])
            if t is And:
                v = [x & y for x, y in pairs]
            elif t is Or:
                v = [x | y for x, y in pairs]
            else:
                v = [full ^ x | y for x, y in pairs]
        val[id(g)] = v
    return val


def _plan(
    nodes: tuple[Node, ...], kids: tuple, kind: str, serial: bool, tree: tuple[int, ...]
) -> tuple:
    """The formula-free part of a probe on one shape, for positions whose
    ``k``-th has its parent at index ``tree[k]`` (the root's is -1).

    Slots are the tree worlds in (depth, node) order, then the heads of the
    completion chains in leaf order.  The plan is ``(owner, kids, runs)``:
    the tree world whose atoms each slot carries, the children ``_truths``
    reads at each tree world, and the positions' slots in each evaluation,
    in :func:`_assignments`' order.  A chain world steps only to the next
    one along its chain, so a position is in its parent's chain when its
    slot is that chain's: a run of slots names its worlds.
    """
    n = len(nodes)
    leaves = tuple(k for k in range(n) if serial and not kids[k])
    chains = tuple(nodes[k] + (0,) for k in leaves)
    slot = {w: k for k, w in enumerate(nodes + chains)}

    def slot_of(world: Node) -> int:
        while world not in slot:  # further along a completion chain
            world = world[:-1]
        return slot[world]

    @functools.cache  # only the slots the runs reach
    def steps(k: int) -> tuple[int, ...]:
        world = (nodes + chains)[k]
        return tuple(map(slot_of, _step_targets(nodes, chains, kind, world)))

    runs: list[tuple[int, ...]] = [()]
    for parent in tree:
        runs = [r + (s,) for r in runs
                for s in (steps(r[parent]) if parent >= 0 else (0,))]
    kids = tuple(ks or (n + leaves.index(k),) if serial else ks
                 for k, ks in enumerate(kids))
    return (*range(n), *leaves), kids, tuple(runs)


@functools.lru_cache(maxsize=64)
def _plans(
    reach: int, max_branching: int, kind: str, serial: bool, tree: tuple[int, ...]
) -> dict[int, tuple]:
    """The plans built so far for the shapes of ``_class_shapes(reach,
    max_branching)``, by index; :func:`find_countermodel` adds each one as
    its sweep first reaches the shape."""
    return {}


def find_countermodel(
    gamma: Sequence[PFormula | EFormula], target: PFormula, logic: str, b: Bounds
) -> tuple[TreeModel, Evaluation] | None:
    """The first bounded structure satisfying ``gamma`` but not ``target``.

    Assumptions are judged on the assumption side and the target on the
    conclusion side (these differ only for the partial logics).  The answer
    is the first refuting pair in :func:`enumerate_models` and
    :func:`enumerate_evaluations` order, ``None`` if there is none.  Only
    evaluations defining every mentioned position can refute; they depend
    only on the shape, the step relation and the tree the positions form,
    and come in the same order in every logic.  So each shape's slots,
    children and evaluations are planned once (:func:`_plan`) and kept
    between probes (:func:`_plans`); a probe only computes truth, for a
    block of valuations at once, bit ``j`` of an ``int`` standing for the
    ``j``-th, and builds the evaluation it returns.

    Only the first shape of each isomorphism class is swept
    (:func:`_class_shapes`).  An isomorphism of rooted trees preserves each
    logic's step relation and sends leaves to leaves, hence completion chains
    to completion chains; it maps the evaluations and the valuations of one
    shape one to one onto those of the other, preserving truth.  So a later
    shape of a class holds a refutation exactly when the first one does, and
    the first refutation in the enumerators' order lies in a first shape.

    In ``k``, ``d`` and ``t`` a step goes one world deeper at most, so a
    formula of modal depth ``m`` at a position of length ``L`` sees worlds of
    depth at most ``L + m``; the sweep stops at the largest such sum and
    wanted position length, the reach.  Cut at the reach, a shape keeps its
    evaluations and truths there (completion chains never look past it): it
    refutes exactly when its truncation does, which comes first in the
    enumerators' order.  A shape within the reach is the first of its
    truncation class, so the first refuting shape, runs and mask stay.
    """
    _check_logic(logic)
    if not isinstance(target, PFormula):
        raise TypeError("the target of a consequence probe is a decorated formula")
    partial, serial = logic in PARTIAL_LOGICS, logic in SERIAL_LOGICS
    facts = [c for c in gamma if isinstance(c, PFormula)]
    if not partial and len(facts) < len(gamma):
        raise TypeError("existence assumptions belong to the partial reading")
    wanted = sorted(init_set([c.position for c in gamma] + [target.position]),
                    key=_depth_order)
    order = _subformulas([c.formula for c in facts] + [target.formula])
    names, kind = atom_names(b.num_atoms), _STEP_KIND[logic]
    reach = b.max_depth
    if kind in ("succ", "succ-refl"):
        modal: dict[int, int] = {}  # modal depth, keyed by identity
        for g in order:
            t = type(g)
            modal[id(g)] = (1 + modal[id(g.body)] if t is Box or t is Dia else
                            0 if t is Atom or t is Bottom else
                            max(modal[id(g.left)], modal[id(g.right)]))
        reach = min(reach, max([len(p) for p in wanted] + [
            len(c.position) + modal[id(c.formula)] for c in [*facts, target]]))
    index = {p: i for i, p in enumerate(wanted)}
    tree = tuple(index[p[:-1]] if p else -1 for p in wanted)
    facts_at = [(id(c.formula), index[c.position]) for c in facts]
    target_at = index[target.position]
    plans = _plans(reach, b.max_branching, kind, serial, tree)
    for i, (nodes, kids) in enumerate(_class_shapes(reach, b.max_branching)):
        if i not in plans:
            plans[i] = _plan(nodes, kids, kind, serial, tree)
        owner, kids, runs = plans[i]
        width = len(nodes) * len(names)
        bits = min(width, _CHUNK_BITS)
        pattern, full = _pattern(bits), (1 << (1 << bits)) - 1
        for lo in range(0, 1 << width, 1 << bits):
            bit = pattern + tuple([full * (lo >> i & 1) for i in range(bits, width)])
            atoms = {name: [bit[k * len(names) + i] for k in owner]
                     for i, name in enumerate(names)}
            val = _truths(order, atoms, full, kids, kind, len(owner))
            goal = val[id(target.formula)]
            checks = [(val[f], at) for f, at in facts_at]
            best = None
            for run in runs:
                refuting = full ^ goal[run[target_at]]
                for v, at in checks:
                    refuting &= v[run[at]]
                low = (refuting & -refuting).bit_length() - 1
                if refuting and (best is None or low < best[0]):
                    best = (low, run)
            if best is not None:
                low, run = best
                worlds = nodes + tuple(nodes[k] + (0,) for k in owner[len(nodes):])
                entries: dict[Position, Node] = {}
                for p, parent, s in zip(wanted, tree, run):
                    on_chain = parent >= 0 and s >= len(nodes) and run[parent] == s
                    entries[p] = entries[p[:-1]] + (0,) if on_chain else worlds[s]
                return (TreeModel(frozenset(nodes), _valuation(nodes, names, lo + low),
                                  serial),
                        Evaluation(entries, partial_allowed=partial))
    return None


def consequence_probe(
    gamma: Sequence[PFormula | EFormula], target: PFormula, logic: str, b: Bounds
) -> bool:
    """Bounded semantic consequence check; refutation-sound only: ``False``
    if and only if :func:`find_countermodel` finds a refutation."""
    return find_countermodel(gamma, target, logic, b) is None


def soundness_probe(d: Derivation, system: System, b: Bounds) -> bool:
    """Bounded empirical soundness of a checked derivation.

    Probes whether the open assumptions semantically entail the
    conclusion within the bounds; the derivation must check first.
    """
    report = check(d, system)
    if not report.ok:
        raise ValueError("derivation does not check; probe refused")
    gamma = [a.content for a in report.open_assumptions]
    return consequence_probe(gamma, d.conclusion, system.logic, b)


# ---------------------------------------------------------------------------
# Model files
# ---------------------------------------------------------------------------


def parse_model(text: str) -> tuple[str, TreeModel]:
    """Read ``(model :logic <l> (node (...) :atoms (...)) ...)`` text.

    Returns the logic tag together with the model.  The trailing
    ``:serial-completion true`` marks a completed (leafless) structure.  The
    worlds must form a tree, and each atom name must be one
    :func:`print_model` writes back.
    """
    return read_one(text, _read_model, ("expected a single model form",) * 2)


def _read_model(toks: list[str]) -> tuple[tuple[str, TreeModel], int]:
    """The reader ``parse_model`` hands to ``read_one``: a fault is placed
    at the model form, or at the node form it is about."""
    if toks[0] != "(" or atom_at(toks, 1) != "model":
        raise Fault("expected a (model ...) form", 0 if toks[0] == "(" else -1)
    if atom_at(toks, 2) != ":logic" or not isinstance(logic := atom_at(toks, 3), str):
        raise Fault("expected :logic <name> first", 0)
    if logic not in _STEP_KIND:
        raise Fault(f"unknown logic {logic!r}", 0)
    nodes: dict[Node, int] = {}  # each world, in file order, to its node form
    valuation: dict[Node, frozenset[str]] = {}
    serial = False
    i = 4
    while toks[i] != ")":
        if atom_at(toks, i) == ":serial-completion":
            value = atom_at(toks, i + 1)
            if value not in ("true", "false"):
                raise Fault(":serial-completion needs true or false", 0)
            serial, i = value == "true", i + 2
            continue
        at = i if toks[i] == "(" else -1  # an atom is placed at line 1, column 1
        if at < 0 or atom_at(toks, i + 1) != "node":
            raise Fault("expected a (node (...) :atoms (...)) form", at)
        w = i + 2  # the world list
        j = skip(toks, w) if toks[w] == "(" else w
        if (
            toks[w] != "("
            or atom_at(toks, j) != ":atoms"
            or toks[j + 1] != "("
            or toks[end := skip(toks, j + 1)] != ")"
        ):
            raise Fault("expected (node (<nat>...) :atoms (<name>...))", i)
        world = tuple(map(atom, toks[w + 1 : j - 1]))
        if not all(isinstance(x, int) for x in world):
            raise Fault("world indices must be naturals", i)
        if world in nodes:
            raise Fault(f"duplicate world {brief(toks, w)}", i)
        atoms = [atom_at(toks, k) for k in range(j + 2, end - 1)]
        if not all(isinstance(a, str) for a in atoms):
            raise Fault("atom names must be symbols", i)
        nodes[world] = i
        if atoms:
            valuation[world] = frozenset(atoms)
        i = end + 1
    for world, at in nodes.items():
        if world and world[:-1] not in nodes:
            raise Fault(f"missing parent world {_world_text(world[:-1])}", at)
        for name in sorted(valuation.get(world, ())):
            if not _LABEL_RE.fullmatch(name):  # a bare symbol that reads as a str
                raise Fault(f"atom name {name!r} cannot be written in a model file", at)
    if not nodes:
        raise Fault("missing root world ()", 0)
    return (logic, TreeModel(frozenset(nodes), valuation, serial)), i + 1


def _world_text(world: Node) -> str:
    return "(" + " ".join(map(str, world)) + ")"


def print_model(m: TreeModel, logic: str) -> str:
    """Render a model in the file format, byte-deterministically."""
    _check_logic(logic)
    lines = [f"(model :logic {logic}"]
    for world in _shape(m.nodes)[0]:
        atoms = " ".join(sorted(m.atoms_at(world)))
        lines.append(f"  (node {_world_text(world)} :atoms ({atoms}))")
    if m.serial_completion:
        lines.append("  :serial-completion true")
    lines[-1] += ")"
    return "\n".join(lines) + "\n"
