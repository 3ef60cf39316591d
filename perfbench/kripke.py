"""A small Kripke evaluator, independent of the package under test.

Worlds are tuples of child indices forming a finite tree.  Each logic reads
accessibility off the tree: ``k``/``d`` one step down, ``t`` one step or
none, ``k4``/``d4`` one or more steps, ``s4`` any number.  The serial logics
``d``/``d4`` extend every leaf by an endless chain of worlds that copy the
leaf's atoms; every chain world satisfies the same formulas, so a chain is
represented by its leaf.  The evaluator re-verifies countermodels returned
by the package and decides small probes by brute force in the tests.
"""

from __future__ import annotations

from itertools import product

STEP = {"k": "succ", "d": "succ", "t": "succ-refl", "k4": "trans", "d4": "trans", "s4": "refl-trans"}
SERIAL = frozenset({"d", "d4"})
PARTIAL = frozenset({"k", "k4"})


def related(kind: str, s: tuple, t: tuple) -> bool:
    """Whether world (or position) ``t`` is one ``kind``-step from ``s``."""
    if t[: len(s)] != s:
        return False
    extra = len(t) - len(s)
    return {"succ": extra == 1, "succ-refl": extra <= 1, "trans": extra >= 1, "refl-trans": True}[kind]


class Model:
    """A finite tree model; ``serial`` adds the leaf chains."""

    def __init__(self, nodes, valuation, serial: bool):
        self.nodes = frozenset(tuple(n) for n in nodes)
        self.val = {tuple(w): frozenset(a) for w, a in dict(valuation).items()}
        self.serial = serial
        self.leaves = {w for w in self.nodes if not any(len(c) == len(w) + 1 and c[: len(w)] == w for c in self.nodes)}

    def chain_of(self, world):
        """The leaf whose chain holds ``world``, or None."""
        probe = tuple(world)
        while probe not in self.nodes:
            if not probe or probe[-1] != 0:
                return None
            probe = probe[:-1]
        if probe == tuple(world) or probe not in self.leaves:
            return None
        return probe

    def contains(self, world) -> bool:
        world = tuple(world)
        return world in self.nodes or (self.serial and self.chain_of(world) is not None)


def _chain_truth(atoms, f) -> bool:
    if isinstance(f, str):
        return f != "bot" and f in atoms
    head = f[0]
    if head in ("box", "dia"):
        return _chain_truth(atoms, f[1])
    return _connective(head, _chain_truth(atoms, f[1]), lambda: _chain_truth(atoms, f[2]))


def _connective(head, left, right) -> bool:
    if head == "and":
        return left and right()
    if head == "or":
        return left or right()
    if head == "imp":
        return (not left) or right()
    raise ValueError(f"unknown connective {head!r}")


def truth(m: Model, logic: str, world, f) -> bool:
    """Truth of formula ``f`` at ``world``."""
    world = tuple(world)
    if world not in m.nodes:
        leaf = m.chain_of(world)
        if leaf is None or not m.serial:
            raise ValueError(f"world {world} is not in the model")
        return _chain_truth(m.val.get(leaf, ()), f)
    if isinstance(f, str):
        return f != "bot" and f in m.val.get(world, ())
    head = f[0]
    if head in ("box", "dia"):
        kind = STEP[logic]
        seen = [truth(m, logic, t, f[1]) for t in m.nodes if related(kind, world, t)]
        if m.serial:
            for leaf in m.leaves:
                if related(kind, world, leaf + (0,)):
                    seen.append(_chain_truth(m.val.get(leaf, ()), f[1]))
        return all(seen) if head == "box" else any(seen)
    return _connective(head, truth(m, logic, world, f[1]), lambda: truth(m, logic, world, f[2]))


def valid_evaluation(m: Model, logic: str, rho: dict) -> bool:
    """Root at root, prefix-closed domain, every step related by the logic."""
    if rho.get((), ()) != ():
        return False
    kind = STEP[logic]
    for pos, w in rho.items():
        if not m.contains(w):
            return False
        if pos and (pos[:-1] not in rho or not related(kind, rho[pos[:-1]], w)):
            return False
    return True


def refutes(m: Model, logic: str, rho: dict, gamma, target) -> bool:
    """Whether ``(m, rho)`` satisfies every assumption and refutes ``target``.

    Assumptions are ``("p", formula, position)`` or ``("e", position)``;
    the target is ``(formula, position)``.  In the partial logics an
    assumption needs its position defined, and the target is refuted only
    where its position is defined.
    """
    for c in gamma:
        if c[0] == "e":
            if c[1] not in rho:
                return False
        elif c[2] not in rho or not truth(m, logic, rho[c[2]], c[1]):
            return False
    f, pos = target
    return pos in rho and not truth(m, logic, rho[pos], f)


def shapes(depth: int, branching: int):
    """Every tree with at most ``depth`` levels below the root and at most
    ``branching`` child slots per world, as node sets."""
    if depth == 0:
        return [frozenset({()})]
    subs = shapes(depth - 1, branching)
    out = []
    for combo in product([None, *subs], repeat=branching):
        nodes = {()}
        for i, sub in enumerate(combo):
            if sub is not None:
                nodes.update((i,) + n for n in sub)
        out.append(frozenset(nodes))
    return out


def brute_force_refutable(gamma, target, logic, depth, branching, atoms) -> bool:
    """Search every model and evaluation within the bounds for a refutation.

    Slow; the benchmark's tests use it to confirm its table of known answers.
    """
    positions = sorted({c[-1][:i] for c in list(gamma) + [target] for i in range(len(c[-1]) + 1)}, key=len)
    kind = STEP[logic]
    for nodes in shapes(depth, branching):
        worlds = sorted(nodes)
        for bits in product([False, True], repeat=len(worlds) * len(atoms)):
            val = {w: {a for j, a in enumerate(atoms) if bits[i * len(atoms) + j]} for i, w in enumerate(worlds)}
            m = Model(nodes, val, logic in SERIAL)
            for rho in _evaluations(m, positions, kind, logic in PARTIAL):
                if refutes(m, logic, rho, gamma, target):
                    return True
    return False


def _evaluations(m, positions, kind, partial):
    longest = max((len(p) for p in positions), default=0)
    chains = [leaf + (0,) * k for leaf in m.leaves for k in range(1, longest + 1)]
    targets = sorted(m.nodes) + (sorted(chains) if m.serial else [])

    def extend(i, rho):
        if i == len(positions):
            yield dict(rho)
            return
        pos = positions[i]
        if not pos:
            rho[pos] = ()
            yield from extend(i + 1, rho)
            return
        if partial:
            yield from extend(i + 1, rho)  # leave ``pos`` undefined
        if pos[:-1] not in rho:
            return
        for w in targets:
            if related(kind, rho[pos[:-1]], w):
                rho[pos] = w
                yield from extend(i + 1, rho)
                del rho[pos]

    yield from extend(0, {})
