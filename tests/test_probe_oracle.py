"""The probe engine against reference copies of its earlier versions.

The reference ``find_countermodel`` builds one model per valuation and
enumerates every evaluation of it; the reference ``_probe_closed_root``
sweeps the valuations of each shape as NumPy boolean arrays, for closed
probes at the root.  Both are copied verbatim below, with the model
enumerator, the evaluation enumerator and the truth functions they call.
``every_shape_countermodel`` is the bitset engine as it was before it swept
only one shape per isomorphism class; it reaches bounds the model-by-model
search cannot, and it sweeps the depths past a ``k``/``d``/``t`` probe's
reach that the engine cuts off.  The engine must give the same verdict and
the same first ``(TreeModel, Evaluation)`` on every probe here, whatever the
size of its valuation blocks, and whatever plans earlier probes left in
its cache.
"""

from __future__ import annotations

import functools
import random
from collections.abc import Iterable, Iterator, Mapping, Sequence

import pytest

import proofgen
from posnd import semantics as S
from posnd.kernel import PARTIAL_LOGICS
from posnd.semantics import (
    _STEP_KIND,
    SERIAL_LOGICS,
    Bounds,
    Evaluation,
    Node,
    TreeModel,
    UndefinedPosition,
    _assignments,
    _check_logic,
    _depth_order,
    _prefix_closed_subsets,
    _shape_sets,
    _subformulas,
    _truths,
    _valuation,
    atom_names,
    chain_truth,
)
from posnd.syntax import (
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
    neg,
    step_holds,
)

try:
    import numpy as np
except ImportError:  # only the closed-root reference needs it
    np = None

LOGICS = ("k", "d", "t", "k4", "d4", "s4")
P, Q = Atom("p"), Atom("q")


# --- reference: the first version, verbatim ---------------------------------


@functools.lru_cache(maxsize=256)
def _shape(nodes: frozenset[Node]) -> tuple[tuple[Node, ...], frozenset[Node]]:
    """A node set in (depth, node) order, and its leaves.

    Cached per node set, as is ``_step_table``: the enumerators build one
    model per valuation over the same few shapes.
    """
    ordered = tuple(sorted(nodes, key=lambda n: (len(n), n)))
    parents = {n[:-1] for n in nodes if n}
    return ordered, frozenset(n for n in nodes if n not in parents)


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



# --- reference: the engine before it swept one shape per class --------------


@functools.lru_cache(maxsize=8)
def _every_shape(max_depth: int, max_branching: int) -> tuple:
    """Every shape within the bounds, ordered by size then node list, as its
    worlds in (depth, node) order and the child indices of each world."""
    shapes = []
    for ns in sorted(
        (sorted(s, key=_depth_order) for s in _shape_sets(max_depth, max_branching)),
        key=lambda ns: (len(ns), ns),
    ):
        kids = [tuple(j for j, c in enumerate(ns) if c and c[:-1] == w) for w in ns]
        shapes.append((tuple(ns), tuple(kids)))
    return tuple(shapes)


def shapes_by_size(max_depth: int, max_branching: int, max_worlds: int) -> Iterator:
    """The shapes of ``_every_shape`` with at most ``max_worlds`` worlds, in
    its order, built one size at a time: each shape of ``n + 1`` worlds is
    one of ``n`` worlds with a child added."""
    level = {frozenset({()})}
    for _ in range(max_worlds):
        for ns in sorted(sorted(s, key=_depth_order) for s in level):
            kids = [tuple(j for j, c in enumerate(ns) if c and c[:-1] == w) for w in ns]
            yield tuple(ns), tuple(kids)
        level = {s | {w + (i,)} for s in level for w in s if len(w) < max_depth
                 for i in range(max_branching) if w + (i,) not in s}


def every_shape_countermodel(
    gamma: Sequence[PFormula | EFormula], target: PFormula, logic: str, b: Bounds,
    shapes: Iterable | None = None,
) -> tuple[TreeModel, Evaluation] | None:
    """The engine sweeping every shape of ``_every_shape`` (or only
    ``shapes``), blocks of ``2 ** 16`` valuations; it shares the package's
    evaluation and truth helpers, which sweeping fewer shapes left as they
    were."""
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
    pattern: list[int] = []  # bit j of pattern[i] is bit i of j
    if shapes is None:
        shapes = _every_shape(b.max_depth, b.max_branching)
    for nodes, kids in shapes:
        n = len(nodes)
        leaves = [k for k in range(n) if serial and not kids[k]]
        chains = tuple(nodes[k] + (0,) for k in leaves)
        slot = {w: k for k, w in enumerate(nodes + chains)}
        kids = [ks or (n + leaves.index(k),) if serial else ks
                for k, ks in enumerate(kids)]

        def slot_of(world: Node) -> int:
            while world not in slot:  # further along a completion chain
                world = world[:-1]
            return slot[world]

        runs = [
            (entries, [(id(c.formula), slot_of(entries[c.position])) for c in facts],
             slot_of(entries[target.position]))
            for entries in _assignments(
                wanted, lambda w: S._step_targets(nodes, chains, kind, w))
        ]
        width = n * len(names)
        bits = min(width, 16)
        while len(pattern) < bits:  # shapes come smallest first
            half = 1 << len(pattern)
            pattern = [p | p << half for p in pattern] + [((1 << half) - 1) << half]
        full = (1 << (1 << bits)) - 1
        for lo in range(0, 1 << width, 1 << bits):
            bit = pattern + [full * (lo >> i & 1) for i in range(bits, width)]
            atoms = {name: [bit[k * len(names) + i] for k in [*range(n), *leaves]]
                     for i, name in enumerate(names)}
            val = _truths(order, atoms, full, kids, kind, n + len(leaves))
            best = None
            for entries, facts_at, target_at in runs:
                refuting = full ^ val[id(target.formula)][target_at]
                for f, s in facts_at:
                    refuting &= val[f][s]
                low = (refuting & -refuting).bit_length() - 1
                if refuting and (best is None or low < best[0]):
                    best = (low, entries)
            if best is not None:
                valuation = _valuation(nodes, names, lo + best[0])
                return (TreeModel(frozenset(nodes), valuation, serial),
                        Evaluation(best[1], partial_allowed=partial))
    return None


# --- cases -------------------------------------------------------------------


def random_formula(rng: random.Random, depth: int) -> Formula:
    if depth == 0 or rng.random() < 0.25:
        return rng.choice([P, Q, Bottom()])
    kind = rng.choice([And, Or, Imp, Box, Dia, Box, Dia])
    if kind in (Box, Dia):
        return kind(random_formula(rng, depth - 1))
    return kind(random_formula(rng, depth - 1), random_formula(rng, depth - 1))


#: Bounds within depth 2, branching 2 and two atoms whose reference search
#: stays cheap; (2, 2, 1) and (1, 1, 2) are the widest.
CASE_BOUNDS = [(0, 1, 2), (1, 1, 1), (1, 1, 2), (1, 2, 1), (2, 1, 1), (2, 2, 1)]
POSITIONS = [(), ("x",), ("y",), ("x", "y")]


#: Wider bounds, searched only against the every-shape engine: up to 15
#: worlds in 676 shapes, or 7 worlds with two atoms.
WIDE_BOUNDS = [(3, 2, 1), (2, 2, 2), (2, 3, 1), (1, 3, 2)]


def random_cases(count: int, seed: int, bounds=CASE_BOUNDS) -> list:
    """Seeded ``(gamma, target, logic, bounds)`` over all six logics: open
    and closed, targets on and off the root, existence assumptions for the
    partial logics, and positions two steps deep, which reach the serial
    completion chains of ``d``/``d4``."""
    rng = random.Random(seed)
    cases = []
    for i in range(count):
        logic = LOGICS[i % len(LOGICS)]
        gamma = []
        for _ in range(rng.choice([0, 0, 1, 2])):
            if logic in PARTIAL_LOGICS and rng.random() < 0.3:
                gamma.append(EFormula(rng.choice(POSITIONS)))
            else:
                gamma.append(PFormula(random_formula(rng, 3), rng.choice(POSITIONS)))
        target = PFormula(random_formula(rng, 3), rng.choice(POSITIONS))
        cases.append((gamma, target, logic, Bounds(*rng.choice(bounds))))
    return cases


def modal_depth(f: Formula) -> int:
    if isinstance(f, (Box, Dia)):
        return 1 + modal_depth(f.body)
    if isinstance(f, (And, Or, Imp)):
        return max(modal_depth(f.left), modal_depth(f.right))
    return 0


def reach(gamma, target) -> int:
    """The deepest world a probe's truth can look at in ``k``/``d``/``t``."""
    facts = [c for c in gamma if isinstance(c, PFormula)] + [target]
    return max([len(c.position) for c in [*gamma, target]]
               + [len(c.position) + modal_depth(c.formula) for c in facts])


def shallow_cases(count: int, seed: int, depth: int) -> list:
    """Seeded ``k``/``d``/``t`` probes at ``Bounds(depth, 2, 1)`` whose reach
    is below ``depth``, with existence assumptions for ``k``."""
    rng = random.Random(seed)
    cases = []
    while len(cases) < count:
        logic = ("k", "d", "t")[len(cases) % 3]
        gamma = []
        for _ in range(rng.choice([0, 0, 1, 2])):
            if logic == "k" and rng.random() < 0.4:
                gamma.append(EFormula(rng.choice(POSITIONS)))
            else:
                f = random_formula(rng, rng.randrange(depth))
                gamma.append(PFormula(f, rng.choice(POSITIONS)))
        target = PFormula(random_formula(rng, rng.randrange(depth)), rng.choice(POSITIONS))
        if reach(gamma, target) < depth:
            cases.append((gamma, target, logic, Bounds(depth, 2, 1)))
    return cases


CASES = random_cases(240, seed=20261018)
WIDE_CASES = random_cases(600, seed=20261019, bounds=WIDE_BOUNDS)

#: The formulas of the closed-root test of the first version.
CLOSED_FORMULAS = [
    P,
    Bottom(),
    Imp(Box(P), P),
    Imp(Box(P), Box(Box(P))),
    Box(Imp(P, P)),
    Dia(P),
    Imp(Box(P), Dia(P)),
    Imp(Dia(Dia(P)), Dia(P)),
    Imp(P, Box(Dia(P))),
    Or(Dia(P), neg(Dia(P))),
]


@functools.lru_cache(maxsize=None)
def reference_answer(index: int):
    gamma, target, logic, b = CASES[index]
    return find_countermodel(gamma, target, logic, b)


def assert_same_answer(gamma, target, logic, b, want) -> None:
    got = S.find_countermodel(gamma, target, logic, b)
    assert got == want, (gamma, target, logic, b)
    assert S.consequence_probe(gamma, target, logic, b) is (want is None)


# --- tests -------------------------------------------------------------------


@pytest.mark.parametrize("chunk_bits", [16, 3, 1])
def test_engine_matches_the_reference_search(monkeypatch, chunk_bits):
    monkeypatch.setattr(S, "_CHUNK_BITS", chunk_bits)
    refuted = 0
    for index, (gamma, target, logic, b) in enumerate(CASES):
        want = reference_answer(index)
        assert_same_answer(gamma, target, logic, b, want)
        refuted += want is not None
    assert 0 < refuted < len(CASES)


def test_engine_matches_the_every_shape_engine_on_wide_bounds():
    """Sweeping one shape per class changes no answer, also where the first
    countermodel comes after a shape the engine skips."""
    refuted = past_skipped = 0
    for gamma, target, logic, b in WIDE_CASES:
        want = every_shape_countermodel(gamma, target, logic, b)
        assert_same_answer(gamma, target, logic, b, want)
        if want is not None:
            refuted += 1
            shapes = [
                [frozenset(nodes) for nodes, _ in table(b.max_depth, b.max_branching)]
                for table in (_every_shape, S._class_shapes)
            ]
            index = [each.index(want[0].nodes) for each in shapes]
            past_skipped += index[0] > index[1]
    assert 0 < refuted < len(WIDE_CASES)
    assert past_skipped > 0
    assert {logic for *_, logic, _ in WIDE_CASES} == set(LOGICS)
    bounds = {(b.max_depth, b.max_branching, b.num_atoms) for *_, b in WIDE_CASES}
    assert bounds == set(WIDE_BOUNDS)
    assert any(isinstance(c, EFormula) for gamma, *_ in WIDE_CASES for c in gamma)
    assert any(t.position != () for _, t, *_ in WIDE_CASES)
    assert any(len(gamma) == 2 for gamma, *_ in WIDE_CASES)


def test_cases_cover_the_probe_kinds():
    logics = {logic for *_, logic, _ in CASES}
    assert logics == set(LOGICS)
    assert any(isinstance(c, EFormula) for gamma, *_ in CASES for c in gamma)
    assert any(t.position != () for _, t, *_ in CASES)
    assert any(not gamma and t.position == () for gamma, t, *_ in CASES)
    deep_serial = [
        i for i, (_, t, logic, b) in enumerate(CASES)
        if logic in SERIAL_LOGICS and reference_answer(i) is not None
        and any(len(w) > b.max_depth for w in reference_answer(i)[1].entries.values())
    ]
    assert deep_serial, "no countermodel evaluates into a completion chain"


def test_closed_formulas_agree_with_both_references():
    """The closed-root sweep and the model-by-model search of the first
    version agree with each other and with the engine."""
    if np is None:
        pytest.skip("the closed-root reference needs numpy")
    b = Bounds(2, 2, 1)
    for logic in LOGICS:
        for f in CLOSED_FORMULAS:
            fast = _probe_closed_root(f, logic, b)
            want = find_countermodel([], PFormula(f, ()), logic, b)
            slow = want is None
            assert fast == slow, (logic, f)
            assert_same_answer([], PFormula(f, ()), logic, b, want)


def test_closed_probes_at_depth_three_match_the_sweep():
    if np is None:
        pytest.skip("the closed-root reference needs numpy")
    b = Bounds(3, 2, 1)
    formulas = [
        Imp(Box(Imp(P, Q)), Imp(Box(P), Box(Q))),
        Imp(Box(P), Box(Box(P))),
        Imp(Dia(P), Box(Dia(P))),
        Imp(Box(P), Dia(P)),
        Imp(Box(P), P),
    ]
    for logic in LOGICS:
        for f in formulas:
            verdict = S.consequence_probe([], PFormula(f, ()), logic, b)
            assert verdict == _probe_closed_root(f, logic, b), (logic, f)


def test_first_countermodel_past_the_first_valuation_block(monkeypatch):
    """With blocks of four valuations, the only refutations of the
    two-world shape sit in its last block (p and q at the child)."""
    monkeypatch.setattr(S, "_CHUNK_BITS", 2)
    b = Bounds(1, 1, 2)
    target = PFormula(neg(Dia(And(P, Q))), ())
    want = find_countermodel([], target, "k", b)
    model, rho = want
    assert model.valuation == {(0,): frozenset({"p", "q"})}
    assert_same_answer([], target, "k", b, want)
    gamma = [PFormula(Box(P), ())]
    assert_same_answer(gamma, target, "k4", b, find_countermodel(gamma, target, "k4", b))


def test_public_enumerators_and_truth_match_the_reference():
    positions = [(), ("x",), ("x", "y")]
    formulas = [P, Box(P), Dia(P), Box(Dia(P)), Dia(Box(Imp(P, Box(P))))]
    for logic in LOGICS:
        models = list(enumerate_models(Bounds(2, 2, 1), logic))
        assert list(S.enumerate_models(Bounds(2, 2, 1), logic)) == models
        for m in models[::7]:
            want = list(enumerate_evaluations(m, positions, logic))
            assert list(S.enumerate_evaluations(m, positions, logic)) == want
            worlds = {w for rho in want for w in rho.entries.values()}
            for w in sorted(worlds):
                for f in formulas:
                    assert S.holds(m, logic, w, f) == holds(m, logic, w, f)


def reference_chain_truth(leaf_valuation: Iterable[str], logic: str, f: Formula) -> bool:
    """``chain_truth`` as it was before it answered through ``_truths``, its
    own pass over the subformulas with box and diamond read as the body."""
    if logic not in SERIAL_LOGICS:
        raise ValueError(
            f"completion chains only arise for {sorted(SERIAL_LOGICS)}, "
            f"not {logic!r}"
        )
    atoms = frozenset(leaf_valuation)
    val: dict[int, bool] = {}
    for g in _subformulas([f]):
        t = type(g)
        if t is Atom or t is Bottom:
            v = t is Atom and g.name in atoms
        elif t is Box or t is Dia:
            v = val[id(g.body)]
        else:
            x, y = val[id(g.left)], val[id(g.right)]
            v = x and y if t is And else x or y if t is Or else not x or y
        val[id(g)] = v
    return val[id(f)]


def test_chain_truth_matches_its_own_loop():
    rng = random.Random("chain-truth")
    formulas = [proofgen.random_formula(rng, depth=5) for _ in range(300)]
    for f in formulas + [Imp(Box(P), Dia(Q)), Bottom()]:
        for atoms in ((), ("p",), ("q",), ("p", "q"), ("r",)):
            for logic in ("d", "d4"):
                want = reference_chain_truth(atoms, logic, f)
                assert chain_truth(atoms, logic, f) is want, (atoms, logic, f)
    with pytest.raises(TypeError):
        chain_truth({"p"}, "d", "p")
    for logic in ("k", "t", "k4", "s4"):
        with pytest.raises(ValueError, match="completion chains only arise"):
            chain_truth({"p"}, logic, P)


def test_probes_within_their_reach_match_the_every_shape_engine():
    """``k``/``d``/``t`` sweep shapes cut at the probe's reach and find the
    countermodel the every-shape engine finds below the bound depth."""
    seen, refuted = set(), 0
    cases = shallow_cases(300, seed=20261020, depth=3)
    for gamma, target, logic, b in cases:
        want = every_shape_countermodel(gamma, target, logic, b)
        assert_same_answer(gamma, target, logic, b, want)
        seen |= reach_kinds(gamma, target, logic, want)
        refuted += want is not None
    assert seen == REACH_KINDS
    assert 0 < refuted < len(cases)


#: Depth-four shapes the every-shape engine sweeps, from the smallest on.
MAX_WORLDS = 7


def test_probes_within_their_reach_at_depth_four():
    """Up to ``MAX_WORLDS`` worlds the every-shape engine sweeps depth four in
    full; past them only the truncations at depth three can refute, which it
    sweeps in full at ``Bounds(3, 2, 1)``."""
    seen, refuted = set(), 0
    cases = shallow_cases(120, seed=20261021, depth=4)
    for gamma, target, logic, b in cases:
        shapes = shapes_by_size(b.max_depth, b.max_branching, MAX_WORLDS)
        want = every_shape_countermodel(gamma, target, logic, b, shapes)
        if want is None:
            want = every_shape_countermodel(gamma, target, logic, Bounds(3, 2, 1))
            assert want is None or len(want[0].nodes) > MAX_WORLDS
        assert_same_answer(gamma, target, logic, b, want)
        seen |= reach_kinds(gamma, target, logic, want)
        refuted += want is not None
    assert seen == REACH_KINDS
    assert 0 < refuted < len(cases)


REACH_KINDS = {"reach 0", "target off the root", "serial leaf above the reach",
               "reflexive step", "existence past the formulas"}


def reach_kinds(gamma, target, logic, answer) -> set[str]:
    """The kinds of ``REACH_KINDS`` that one probe and its answer show."""
    r = reach(gamma, target)
    kinds = {"reach 0"} if r == 0 else set()
    if target.position != ():
        kinds.add("target off the root")
    if answer is not None:
        model, rho = answer
        parents = {w[:-1] for w in model.nodes if w}
        if logic == "d" and any(len(w) < r for w in model.nodes - parents):
            kinds.add("serial leaf above the reach")
        if logic == "t" and any(p and rho.entries[p] == rho.entries[p[:-1]]
                                for p in rho.entries):
            kinds.add("reflexive step")
    formulas = [len(c.position) + modal_depth(c.formula)
                for c in [*gamma, target] if isinstance(c, PFormula)]
    if any(isinstance(c, EFormula) and len(c.position) > max(formulas)
           for c in gamma):
        kinds.add("existence past the formulas")
    return kinds


def planned_shapes(monkeypatch) -> list:
    """Empty the plan cache, then record the shape of every plan built."""
    S._plans.cache_clear()
    built, plan = [], S._plan
    monkeypatch.setattr(S, "_plan", lambda nodes, *rest: built.append(nodes)
                        or plan(nodes, *rest))
    return built


def test_closed_k_schema_sweeps_the_shapes_of_its_reach(monkeypatch):
    target = PFormula(Imp(Box(Imp(P, Q)), Imp(Box(P), Box(Q))), ())
    for logic, count in (("k", 3), ("k4", 66)):
        built = planned_shapes(monkeypatch)
        assert S.find_countermodel([], target, logic, Bounds(3, 2, 1)) is None
        assert len(built) == count, logic
        assert S.find_countermodel([], target, logic, Bounds(3, 2, 1)) is None
        assert len(built) == count, "a warm sweep plans again"


def test_a_refutable_probe_plans_no_shape_past_its_refutation(monkeypatch):
    b, late = Bounds(3, 2, 1), 0
    for logic in LOGICS:
        for f in CLOSED_FORMULAS:
            built = planned_shapes(monkeypatch)
            answer = S.find_countermodel([], PFormula(f, ()), logic, b)
            if answer is None:
                continue
            depth = min(b.max_depth, modal_depth(f)) if logic in ("k", "d", "t") else 3
            sweep = [nodes for nodes, _ in S._class_shapes(depth, b.max_branching)]
            assert built == sweep[:len(built)], (logic, f)
            assert frozenset(built[-1]) == answer[0].nodes, (logic, f)
            late = max(late, len(built))
    assert late > 2


# --- the plan cache ------------------------------------------------------------


def renamed(case, names: dict):
    """The probe ``case`` with each position token renamed by ``names``."""
    gamma, target, logic, b = case

    def pos(p):
        return tuple(names.get(x, x) for x in p)

    gamma = [EFormula(pos(c.position)) if isinstance(c, EFormula)
             else PFormula(c.formula, pos(c.position)) for c in gamma]
    return gamma, PFormula(target.formula, pos(target.position)), logic, b


def printed_answer(gamma, target, logic, b, names=None):
    """Verdict, printed model and evaluation entries of one probe, the
    entries' tokens renamed by ``names``."""
    verdict = S.consequence_probe(gamma, target, logic, b)
    found = S.find_countermodel(gamma, target, logic, b)
    if found is None:
        return verdict, None
    model, rho = found
    entries = {tuple((names or {}).get(x, x) for x in p): w
               for p, w in rho.entries.items()}
    return verdict, S.print_model(model, logic), sorted(entries.items())


#: One renaming keeps the order of the corpus's tokens, so its probes share
#: their plans and answers with the originals; the other swaps them.
KEEP_ORDER, SWAP = {"x": "u", "y": "v"}, {"x": "y", "y": "x"}


def test_a_warm_plan_cache_gives_the_cold_answers():
    """Each probe answers with its plans built for it alone and with plans
    left by other probes: renamed, in other logics at equal bounds (the
    corpus cycles through the logics), serial or not."""
    base = CASES + WIDE_CASES
    cases = [*base, *(renamed(c, KEEP_ORDER) for c in base),
             *(renamed(c, SWAP) for c in base)]
    cold = []
    for case in cases:
        S._plans.cache_clear()
        cold.append(printed_answer(*case))
    for i, case in enumerate(base):
        assert cold[len(base) + i] == printed_answer(*case, KEEP_ORDER), case
    S._plans.cache_clear()
    by_bounds = sorted(range(len(cases)), key=lambda i: (cases[i][3].max_depth,
                       cases[i][3].max_branching, cases[i][3].num_atoms, i))
    for _ in range(2):
        for i in by_bounds:
            assert printed_answer(*cases[i]) == cold[i], cases[i]
    assert sum(answer[1] is not None for answer in cold) > len(cases) // 4


def test_serial_and_non_serial_logics_keep_their_own_plans():
    target = PFormula(Box(Bottom()), ("x",))
    b = Bounds(1, 1, 1)
    S._plans.cache_clear()
    for logic, size in (("d", 1), ("k", 2), ("d4", 3), ("k4", 4), ("d", 4)):
        S.find_countermodel([], target, logic, b)
        assert S._plans.cache_info().currsize == size, logic
    assert S.find_countermodel([], target, "k", b) is None
    model, rho = S.find_countermodel([], target, "d", b)
    assert model.serial_completion and rho.entries[("x",)] == (0,)
