"""Finite tree models and bounded consequence probes.

Worlds form a finite tree of natural-number sequences ordered by the
one-step child relation; each logic reads its accessibility off that
order (children, reflexive closure, transitive closure, or both).  The
serial logics ``d``/``d4`` demand leafless structures, realized finitely
by *serial completion*: every leaf conceptually grows an infinite chain
of single successors whose valuation stays constant, so truth along the
chain is uniform and computable by structural recursion
(:func:`chain_truth`).

Decorated formulas are judged through an evaluation sending positions to
worlds, total for ``d``/``t``/``d4``/``s4`` and possibly partial for
``k``/``k4``.  Bounded, deterministic enumerators over models and
evaluations feed a refutation-sound consequence probe: a ``False``
answer comes with a concrete countermodel, a ``True`` answer only says
no refutation exists within the bounds.
"""

from __future__ import annotations

import functools
import itertools
from collections.abc import Iterable, Iterator, Mapping, Sequence
from dataclasses import dataclass, field

import numpy as np

from ._sexpr import ParseError, parse_all
from .kernel import LOGICS, PARTIAL_LOGICS, Derivation, System, check
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

#: One-step relation on worlds read off by each logic.
_STEP_KIND = {
    "k": "succ",
    "d": "succ",
    "t": "succ-refl",
    "k4": "trans",
    "d4": "trans",
    "s4": "refl-trans",
}


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
    ``max_branching`` the child count per world, ``num_atoms`` the
    proposition supply, and ``alphabet_size`` the position-token supply
    available to randomized instance generators.
    """

    max_depth: int
    max_branching: int
    num_atoms: int
    alphabet_size: int = 1

    def __post_init__(self) -> None:
        if self.max_depth < 0:
            raise ValueError("max_depth must be >= 0")
        for name in ("max_branching", "num_atoms", "alphabet_size"):
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


@functools.lru_cache(maxsize=256)
def _shape(nodes: frozenset[Node]) -> tuple[tuple[Node, ...], frozenset[Node]]:
    """A node set in (depth, node) order, and its leaves.

    Cached per node set, as is ``_step_table``: the enumerators build one
    model per valuation over the same few shapes.
    """
    ordered = tuple(sorted(nodes, key=lambda n: (len(n), n)))
    parents = {n[:-1] for n in nodes if n}
    return ordered, frozenset(n for n in nodes if n not in parents)


def _sorted_nodes(m: TreeModel) -> tuple[Node, ...]:
    return _shape(m.nodes)[0]


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


@functools.lru_cache(maxsize=256)
def _step_table(
    nodes: frozenset[Node], serial: bool, kind: str
) -> dict[Node, tuple[Node, ...]]:
    """``_step_targets`` of every in-tree world of one structure."""
    ordered, leaves = _shape(nodes)
    leaves_in_order = [n for n in ordered if n in leaves]
    table = {}
    for world in ordered:
        targets = [t for t in ordered if step_holds(kind, world, t)]
        if serial:
            for leaf in leaves_in_order:
                if kind in ("succ", "succ-refl"):
                    if world == leaf:
                        targets.append(leaf + (0,))
                elif leaf[: len(world)] == world:
                    targets.append(leaf + (0,))
        table[world] = tuple(targets)
    return table


def _step_targets(m: TreeModel, kind: str, world: Node) -> Sequence[Node]:
    """Worlds one ``kind``-step from ``world``, completion chains included.

    A completion chain has a uniform theory, so a single representative
    (the next chain world) stands in for the infinitely many chain
    targets a transitive step could reach.
    """
    if world not in m.nodes:
        targets = [world] if kind in ("succ-refl", "refl-trans") else []
        targets.append(world + (0,))
        return targets
    return _step_table(m.nodes, m.serial_completion, kind)[world]


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
    worlds ahead of it, so box and diamond both reduce to the body and
    the whole evaluation is a structural recursion.  Only the serial
    logics have such chains.
    """
    if logic not in SERIAL_LOGICS:
        raise ValueError(
            f"completion chains only arise for {sorted(SERIAL_LOGICS)}, "
            f"not {logic!r}"
        )
    atoms = frozenset(leaf_valuation)

    def truth(g: Formula) -> bool:
        if isinstance(g, Atom):
            return g.name in atoms
        if isinstance(g, Bottom):
            return False
        if isinstance(g, And):
            return truth(g.left) and truth(g.right)
        if isinstance(g, Or):
            return truth(g.left) or truth(g.right)
        if isinstance(g, Imp):
            return (not truth(g.left)) or truth(g.right)
        if isinstance(g, (Box, Dia)):
            return truth(g.body)
        raise TypeError(f"not a formula: {g!r}")

    return truth(f)


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


def _canonical_shapes(b: Bounds) -> list[list[Node]]:
    """Shapes as sorted node lists, in a deterministic global order."""
    shapes = [
        sorted(shape, key=lambda n: (len(n), n))
        for shape in _shape_sets(b.max_depth, b.max_branching)
    ]
    shapes.sort(key=lambda ns: (len(ns), ns))
    return shapes


def enumerate_models(b: Bounds, logic: str) -> Iterator[TreeModel]:
    """All models within the bounds, in a fixed deterministic order.

    Shapes are ordered by size then node list; valuations sweep a
    bitmask over (world, atom) pairs.  The serial logics get the
    completion flag set on every model.
    """
    _check_logic(logic)
    names = atom_names(b.num_atoms)
    serial = logic in SERIAL_LOGICS
    for nodes in _canonical_shapes(b):
        width = len(nodes) * len(names)
        for mask in range(1 << width):
            valuation = {}
            for k, world in enumerate(nodes):
                present = frozenset(
                    name
                    for i, name in enumerate(names)
                    if mask >> (k * len(names) + i) & 1
                )
                if present:
                    valuation[world] = present
            yield TreeModel(frozenset(nodes), valuation, serial)


def _prefix_closed_subsets(
    positions: list[Position],
) -> Iterator[list[Position]]:
    """All prefix-closed subsets, smallest first, then lexicographic."""
    for size in range(len(positions) + 1):
        for combo in itertools.combinations(positions, size):
            chosen = set(combo)
            if all(p[:-1] in chosen for p in combo if p):
                yield list(combo)


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
    wanted = sorted({tuple(p) for p in positions}, key=lambda p: (len(p), p))
    for p in wanted:
        if p and p[:-1] not in set(wanted):
            raise ValueError(f"positions are not prefix-closed at {p!r}")
    kind = _STEP_KIND[logic]
    partial = logic in PARTIAL_LOGICS

    def assignments(domain: list[Position]) -> Iterator[dict[Position, Node]]:
        def extend(i: int, acc: dict[Position, Node]) -> Iterator[dict]:
            if i == len(domain):
                yield dict(acc)
                return
            pos = domain[i]
            if not pos:
                acc[pos] = ()
                yield from extend(i + 1, acc)
                del acc[pos]
                return
            for world in _step_targets(m, kind, acc[pos[:-1]]):
                acc[pos] = world
                yield from extend(i + 1, acc)
                del acc[pos]

        yield from extend(0, {})

    if partial:
        for domain in _prefix_closed_subsets(wanted):
            for entries in assignments(domain):
                yield Evaluation(entries, partial_allowed=True)
    else:
        for entries in assignments(wanted):
            yield Evaluation(entries, partial_allowed=False)


# ---------------------------------------------------------------------------
# Probes
# ---------------------------------------------------------------------------


def _mentioned_positions(
    gamma: Sequence[PFormula | EFormula], target: PFormula
) -> frozenset[Position]:
    return init_set(
        [c.position for c in gamma] + [target.position]
    )


def find_countermodel(
    gamma: Sequence[PFormula | EFormula],
    target: PFormula,
    logic: str,
    b: Bounds,
) -> tuple[TreeModel, Evaluation] | None:
    """The first bounded structure satisfying ``gamma`` but not ``target``.

    Assumptions are judged on the assumption side and the target on the
    conclusion side (these differ only for the partial logics).  Returns
    ``None`` when no refutation exists within the bounds.
    """
    _check_logic(logic)
    positions = sorted(_mentioned_positions(gamma, target))
    partial = logic in PARTIAL_LOGICS
    for m in enumerate_models(b, logic):
        for rho in enumerate_evaluations(m, positions, logic):
            if partial:
                left = all(sat_left(m, logic, rho, c) for c in gamma)
                refuted = left and not sat_right(m, logic, rho, target)
            else:
                left = all(sat(m, logic, rho, c) for c in gamma)
                refuted = left and not sat(m, logic, rho, target)
            if refuted:
                return m, rho
    return None


def _probe_closed_root(f: Formula, logic: str, b: Bounds) -> bool:
    """Vectorized probe for a closed judgment at the root position.

    With no assumptions and the root as the only mentioned position,
    only the root-anchored evaluation can refute, so the probe reduces
    to truth of ``f`` at every enumerated model's root.  Valuations are
    swept as bitmask axes of boolean arrays, one batch per shape.
    """
    names = atom_names(b.num_atoms)
    name_index = {name: i for i, name in enumerate(names)}
    serial = logic in SERIAL_LOGICS
    kind = _STEP_KIND[logic]
    for nodes in _canonical_shapes(b):
        width = len(nodes) * len(names)
        masks = np.arange(1 << width, dtype=np.int64)
        bare = TreeModel(frozenset(nodes), {}, serial)
        index = {world: k for k, world in enumerate(nodes)}
        leaf_of = {}

        def locate(world: Node) -> tuple[str, int]:
            if world in index:
                return ("tree", index[world])
            leaf = _tail_leaf(bare, world)
            return ("chain", index[leaf])

        targets = {
            k: [locate(t) for t in _step_targets(bare, kind, world)]
            for k, world in enumerate(nodes)
        }
        memo: dict[tuple[Formula, tuple[str, int]], np.ndarray] = {}

        def truth(g: Formula, at: tuple[str, int]) -> np.ndarray:
            key = (g, at)
            cached = memo.get(key)
            if cached is not None:
                return cached
            realm, k = at
            if isinstance(g, Atom):
                i = name_index.get(g.name)
                if i is None:
                    out = np.zeros(masks.shape, dtype=bool)
                else:
                    out = (masks >> (k * len(names) + i) & 1).astype(bool)
            elif isinstance(g, Bottom):
                out = np.zeros(masks.shape, dtype=bool)
            elif isinstance(g, And):
                out = truth(g.left, at) & truth(g.right, at)
            elif isinstance(g, Or):
                out = truth(g.left, at) | truth(g.right, at)
            elif isinstance(g, Imp):
                out = ~truth(g.left, at) | truth(g.right, at)
            elif isinstance(g, (Box, Dia)):
                if realm == "chain":
                    out = truth(g.body, at)
                elif isinstance(g, Box):
                    out = np.ones(masks.shape, dtype=bool)
                    for t in targets[k]:
                        out &= truth(g.body, t)
                else:
                    out = np.zeros(masks.shape, dtype=bool)
                    for t in targets[k]:
                        out |= truth(g.body, t)
            else:
                raise TypeError(f"not a formula: {g!r}")
            memo[key] = out
            return out

        if not truth(f, ("tree", 0)).all():
            return False
    return True


#: Largest (worlds x atoms) bitmask width the vectorized sweep will take on.
_FAST_WIDTH_LIMIT = 18


def consequence_probe(
    gamma: Sequence[PFormula | EFormula],
    target: PFormula,
    logic: str,
    b: Bounds,
) -> bool:
    """Bounded semantic consequence check; refutation-sound only.

    ``False`` means a structure within the bounds satisfies every
    assumption yet refutes the target; ``True`` means none does.  The
    common closed-at-root case runs on a vectorized sweep (while the
    valuation bitmask stays small enough), the general case on the
    plain enumerators.
    """
    _check_logic(logic)
    if not isinstance(target, PFormula):
        raise TypeError("the target of a consequence probe is a decorated formula")
    if not gamma and target.position == ():
        widest = len(_canonical_shapes(b)[-1]) * b.num_atoms
        if widest <= _FAST_WIDTH_LIMIT:
            return _probe_closed_root(target.formula, logic, b)
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
    ``:serial-completion true`` marks a completed (leafless) structure.
    """
    locations: dict[int, tuple[int, int]] = {}
    forms = parse_all(text, locations)
    if len(forms) != 1:
        raise ParseError("expected a single model form", 1, 1)
    form = forms[0]

    def where(obj: object) -> tuple[int, int]:
        return locations.get(id(obj), (1, 1))

    def fail(message: str, obj: object) -> ParseError:
        line, column = where(obj)
        return ParseError(message, line, column)

    if not isinstance(form, list) or not form or form[0] != "model":
        raise fail("expected a (model ...) form", form)
    items = form[1:]
    if len(items) < 2 or items[0] != ":logic" or not isinstance(items[1], str):
        raise fail("expected :logic <name> first", form)
    logic = items[1]
    if logic not in _STEP_KIND:
        raise fail(f"unknown logic {logic!r}", form)
    nodes: set[Node] = set()
    valuation: dict[Node, frozenset[str]] = {}
    serial = False
    rest = items[2:]
    i = 0
    while i < len(rest):
        item = rest[i]
        if item == ":serial-completion":
            if i + 1 >= len(rest) or rest[i + 1] not in ("true", "false"):
                raise fail(":serial-completion needs true or false", form)
            serial = rest[i + 1] == "true"
            i += 2
            continue
        if not isinstance(item, list) or not item or item[0] != "node":
            raise fail("expected a (node (...) :atoms (...)) form", item)
        if (
            len(item) != 4
            or not isinstance(item[1], list)
            or item[2] != ":atoms"
            or not isinstance(item[3], list)
        ):
            raise fail("expected (node (<nat>...) :atoms (<name>...))", item)
        if not all(isinstance(x, int) for x in item[1]):
            raise fail("world indices must be naturals", item)
        world = tuple(item[1])
        if world in nodes:
            raise fail(f"duplicate world {world!r}", item)
        atoms = []
        for a in item[3]:
            if not isinstance(a, str):
                raise fail("atom names must be symbols", item)
            atoms.append(a)
        nodes.add(world)
        if atoms:
            valuation[world] = frozenset(atoms)
        i += 1
    return logic, TreeModel(frozenset(nodes), valuation, serial)


def print_model(m: TreeModel, logic: str) -> str:
    """Render a model in the file format, byte-deterministically."""
    _check_logic(logic)
    lines = [f"(model :logic {logic}"]
    for world in _sorted_nodes(m):
        spot = "(" + " ".join(str(i) for i in world) + ")"
        atoms = " ".join(sorted(m.atoms_at(world)))
        lines.append(f"  (node {spot} :atoms ({atoms}))")
    if m.serial_completion:
        lines.append("  :serial-completion true")
    lines[-1] += ")"
    return "\n".join(lines) + "\n"
