"""Seeded input generators with answers known by construction.

Each generator takes the seed as an argument and returns a list of request
items.  An item holds only what the package under test receives (a proof
text, a derivation, a formula text) next to the answer the benchmark
expects, which follows from how the item was built, never from running the
package.  Class sizes follow fixed schedules and only the content varies
with the seed, so every seed asks for about the same amount of work.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

import proofs as P
from forms import canonical, dump, g_translate, neg, proof_text

ATOMS = ("p", "q")


def formula(rng: random.Random, connectives: int):
    """A formula over p and q with exactly ``connectives`` connectives."""
    if connectives == 0:
        return rng.choice(ATOMS)
    kind = rng.choice(("and", "or", "imp", "box", "dia", "not"))
    if kind in ("box", "dia"):
        return (kind, formula(rng, connectives - 1))
    if kind == "not":
        return neg(formula(rng, connectives - 1))
    left = rng.randrange(connectives)
    return (kind, formula(rng, left), formula(rng, connectives - 1 - left))


SYSTEMS = tuple((lg, fl) for lg in P.LOGICS for fl in P.FLAVORS)


# --- check-stream ----------------------------------------------------------


@dataclass
class CheckItem:
    """One proof file and its known verdict."""

    cls: str  # small | large-context | deep
    text: str
    logic: str
    flavor: str
    ok: bool
    nodes: int
    opens: tuple = ()  # sorted open labels, with multiplicity, when ok
    mark: tuple = ()  # path of the broken node, when not ok
    rule: str = ""
    keyword: str = ""
    order: int = 0  # place in the fixed schedule, before shuffling


def _axioms_for(logic: str, flavor: str):
    return [
        ax for ax, (_, logics) in P.AXIOMS.items()
        if logic in logics and not (ax == "dia-dual" and flavor == "intuitionistic")
    ]


SMALL_KINDS = ("axiom", "pair", "mp", "chain")


def _small_valid(rng, logic, flavor, n):
    """The ``n``-th small valid proof of a system: its kind, axiom and
    length follow fixed cycles; the seed picks formulas and figures."""
    partial = logic in P.PARTIAL
    a, b = formula(rng, 1), formula(rng, 1)
    axes = _axioms_for(logic, flavor)
    kind, turn = SMALL_KINDS[n % len(SMALL_KINDS)], n // len(SMALL_KINDS)
    if kind == "axiom":
        return P.AXIOMS[axes[turn % len(axes)]][0](a, b, partial)
    if kind == "pair":
        small = [x for x in axes if x != "dia-dual"]
        x, y = small[turn % len(small)], small[(turn + 1) % len(small)]
        pair = P.and_i(P.AXIOMS[x][0](a, b, partial), P.AXIOMS[y][0](b, a, partial))
        return P.and_e(1 + turn % 2, pair)
    if kind == "mp":
        d = P.AXIOMS[axes[turn % len(axes)]][0](a, b, partial)
        while d.formula[0] == "and":
            d = P.and_e(1, d)
        return P.imp_e(d, P.hyp("h", d.formula[1]))
    base_f, figs = (
        (("box", a), P.TRANSPARENT + ("box",)), (("dia", a), P.TRANSPARENT + ("dia",)), (a, P.TRANSPARENT)
    )[turn % 3]
    seq = [figs[(turn + i) % len(figs)] for i in range(1 + turn % 6)]
    return P.chain(P.hyp("u", base_f), seq, partial, b)[0]


def break_kinds(logic: str, flavor: str) -> list[str]:
    kinds = ["discharge", "fresh"]
    if logic != "s4":
        kinds.append("step")
    if flavor == "intuitionistic":
        kinds.append("bot-c")
    if logic not in P.PARTIAL:
        kinds.append("ehyp")
    return kinds


_BAD_STEPS = {"k": (0, 2), "d": (0, 2), "t": (2,), "k4": (0,), "d4": (0,)}


def _broken_core(rng, kind, logic):
    """A small proof with exactly one node that breaks in ``logic``."""
    partial = logic in P.PARTIAL
    a, b = formula(rng, 1), formula(rng, 1)
    if kind == "step":
        beta = ("x", "y")[: rng.choice(_BAD_STEPS[logic])]
        e = P.ehyp("e", beta) if partial and beta else None
        return P.bad_step(P.hyp("u", ("box", a)), beta, e)
    if kind == "discharge":
        body = P.imp_e(P.hyp("f", ("imp", a, b)), P.hyp("u", a))
        return P.bad_discharge("u", body, b if b != a else neg(a))
    if kind == "fresh":
        e = P.ehyp("e", ("x",)) if partial else None
        step = P.box_e(P.hyp("u", ("box", a)), ("x",), e)
        both = P.and_i(step, P.hyp("w", b, ("x",)))
        return P.bad_fresh("x", {"e"} if partial else set(), both)
    if kind == "bot-c":
        absurd = P.imp_e(P.hyp("v", neg(a)), P.hyp("w", a))
        return P.mark(P.bot_c("v", absurd, a, ()), "bot-c")
    if kind == "ehyp":
        return P.box_e(P.hyp("u", ("box", a)), ("x",), P.mark(P.ehyp("e", ("x",)), "ehyp"))
    raise ValueError(kind)


def _wrap_small(rng, core, logic, n):
    """``n % 4`` transparent detours around a broken core."""
    seq = [P.TRANSPARENT[(n + i) % len(P.TRANSPARENT)] for i in range(n % 4)]
    return P.chain(core, seq, logic in P.PARTIAL, formula(rng, 1))[0]


def _context(rng, d, levels, per_level, stem):
    """Grow ``d`` under ``levels`` and-detours, each leaving ``per_level``
    fresh hypotheses open: the open context the kernel carries grows with
    every level."""
    n = 0
    for _ in range(levels):
        hyps = []
        for _ in range(per_level):
            n += 1
            hyps.append(P.hyp(f"{stem}{n}", formula(rng, 1), d.pos))
        while len(hyps) > 1:
            hyps = [P.and_i(x, y) for x, y in zip(hyps[::2], hyps[1::2])] + hyps[len(hyps) - len(hyps) % 2:]
        d = P.and_e(1, P.and_i(d, hyps[0]))
    return d


def _deep(d, levels):
    """Put ``d`` under ``levels`` implication detours, one per level."""
    for i in range(levels):
        a = f"d{i}"
        d = P.imp_e(P.imp_i(a, P.hyp(a, d.formula, d.pos)), d)
    return d


#: Per block of 80 requests: 74 small, 4 large-context, 2 deep; half of each
#: class broken.  Open-context sizes and chain depths cycle through fixed
#: schedules so every seed asks for the same amount of kernel work.
CHECK_BLOCK = (("small", 74), ("large-context", 4), ("deep", 2))
CONTEXT_SIZES = (100, 150, 200, 250, 300)
CONTEXT_LEVELS = 50
DEEP_LEVELS = (90, 180, 270, 360)


def _check_item(cls, valid, d, logic, flavor, order) -> CheckItem:
    text = proof_text(d.node, logic, flavor)
    if valid:
        if not P.valid_in(d, logic, flavor):
            raise P.BuildError("a valid item does not hold in its system")
        return CheckItem(cls, text, logic, flavor, True, d.size, opens=tuple(sorted(lab for lab, _ in d.opens)), order=order)
    return CheckItem(
        cls, text, logic, flavor, False, d.size,
        mark=d.mark, rule=d.mark_rule, keyword=P.BREAK_KEYWORDS[d.mark_kind], order=order,
    )


def check_stream(seed: int, blocks: int = 4) -> list[CheckItem]:
    rng = random.Random(seed)
    items = []
    sys_i = ctx_i = deep_i = 0
    for _ in range(blocks):
        block = []
        for cls, count in CHECK_BLOCK:
            for j in range(count):
                logic, flavor = SYSTEMS[sys_i % len(SYSTEMS)]
                turn = sys_i // len(SYSTEMS)  # how often this system came up
                sys_i += 1
                valid = j % 2 == 0
                if valid and cls != "small":
                    # Large and deep proofs grow from a core of fixed shape,
                    # so that their cost does not vary with the seed.
                    seq = ("imp", "and1", "or1")
                    core = P.chain(P.hyp("u", formula(rng, 1)), seq, logic in P.PARTIAL, formula(rng, 1))[0]
                elif valid:
                    core = _small_valid(rng, logic, flavor, turn)
                else:
                    kinds = break_kinds(logic, flavor)
                    core = _broken_core(rng, kinds[turn % len(kinds)], logic)
                    core = _wrap_small(rng, core, logic, turn)
                if cls == "large-context":
                    size = CONTEXT_SIZES[ctx_i % len(CONTEXT_SIZES)]
                    ctx_i += 1
                    d = _context(rng, core, CONTEXT_LEVELS, size // CONTEXT_LEVELS, "c")
                elif cls == "deep":
                    levels = DEEP_LEVELS[deep_i % len(DEEP_LEVELS)]
                    deep_i += 1
                    d = _deep(core, levels - core.depth)
                else:
                    d = core
                block.append(_check_item(cls, valid, d, logic, flavor, sys_i))
        rng.shuffle(block)
        items.extend(block)
    return items


# --- normalize-deep --------------------------------------------------------


@dataclass
class NormItem:
    """One intuitionistic normalization job and its known properties."""

    cls: str  # translation | chain
    text: str  # the proof file the derivation is read from during set-up
    logic: str
    flavor: str  # the flavor of the input: classical items are translated first
    formula: object  # the conclusion the result must keep
    pos: tuple
    normal_form: object = None  # canonical normal form, when known exactly
    order: int = 0  # place in the fixed schedule, before shuffling


def _classical_source(rng, kind, logic):
    """A classical derivation whose translation carries detours."""
    partial = logic in P.PARTIAL
    a = rng.choice(ATOMS)
    b = "q" if a == "p" else "p"
    if kind == "dia-dual":
        return P.axiom_dia_dual(a, b, partial)
    if kind == "dne":
        absurd = P.imp_e(P.hyp("u", neg(neg(a))), P.hyp("v", neg(a)))
        return P.imp_i("u", P.bot_c("v", absurd, a, ()))
    if kind == "or-comm":
        left = P.or_i(2, b, P.hyp("l", a))
        right = P.or_i(1, a, P.hyp("r", b))
        return P.imp_i("u", P.or_e(P.hyp("u", ("or", a, b)), "l", left, "r", right))
    e1 = P.ehyp("e1", ("x",)) if partial else None
    e2 = P.ehyp("e2", ("x",)) if partial else None
    step = P.box_e(P.hyp("f", ("box", ("imp", a, b))), ("x",), e1)
    inner = P.dia_i(("x",), P.imp_e(step, P.hyp("w", a, ("x",))), e2)
    body = P.dia_e(P.hyp("g", ("dia", a)), "x", "w", {"e1", "e2"} if partial else set(), inner)
    return P.imp_i("f", P.imp_i("g", body))


#: Per block of 10 jobs: 4 translations of classical proofs, 6 detour
#: chains.  Translation sources (each tuple is conjoined into one proof),
#: chain families and chain lengths cycle through fixed schedules, and a
#: chain runs through the figures of its family in a fixed order; the seed
#: picks which atom plays which part and the order of the jobs.  So every
#: seed asks for the same normalization work.
NORM_BLOCK = (("translation", 4), ("chain", 6))
TRANSLATIONS = (("dia-dual",), ("or-comm",), ("dia-mono",), ("dne", "dia-dual"))
CHAIN_FAMILIES = ("box", "dia", "comm")
CHAIN_REPEATS = (1, 2, 3)  # a chain runs through its family's figures this often


def normalize_deep(seed: int, blocks: int = 3) -> list[NormItem]:
    rng = random.Random(seed)
    items = []
    sys_i = chain_i = tr_i = 0
    for _ in range(blocks):
        block = []
        for cls, count in NORM_BLOCK:
            for _ in range(count):
                logic = P.LOGICS[sys_i % len(P.LOGICS)]
                sys_i += 1
                if cls == "translation":
                    kinds = TRANSLATIONS[tr_i % len(TRANSLATIONS)]
                    tr_i += 1
                    d = _classical_source(rng, kinds[0], logic)
                    for kind in kinds[1:]:
                        d = P.and_i(d, _classical_source(rng, kind, logic))
                    if not P.valid_in(d, logic, "classical"):
                        raise P.BuildError("a translation source does not check")
                    text = proof_text(d.node, logic, "classical")
                    block.append(NormItem(cls, text, logic, "classical", g_translate(d.formula), d.pos, order=sys_i))
                    continue
                family = CHAIN_FAMILIES[chain_i % len(CHAIN_FAMILIES)]
                repeats = CHAIN_REPEATS[chain_i // len(CHAIN_FAMILIES) % len(CHAIN_REPEATS)]
                chain_i += 1
                a, side = rng.sample(ATOMS, 2)
                if family == "comm":
                    base, figs = P.hyp("u", a), P.TRANSPARENT + ("comm-or", "comm-dia")
                else:
                    base, figs = P.hyp("u", (family, a)), P.TRANSPARENT + (family,)
                seq = figs * repeats
                d, nf = P.chain(base, seq, logic in P.PARTIAL, side)
                if not P.valid_in(d, logic, "intuitionistic"):
                    raise P.BuildError("a chain does not check")
                text = proof_text(d.node, logic, "intuitionistic")
                block.append(NormItem(cls, text, logic, "intuitionistic", d.formula, d.pos, canonical(nf.node), sys_i))
        rng.shuffle(block)
        items.extend(block)
    return items


# --- countermodel ----------------------------------------------------------


def _imp(a, b):
    return ("imp", a, b)


#: Closed probes (no assumptions, target at the root): schema -> (formula
#: of A and B, logics where every instance is valid).
CLOSED_SCHEMAS = {
    "K": (lambda a, b: _imp(("box", _imp(a, b)), _imp(("box", a), ("box", b))), P.LOGICS),
    "dia-dual": (lambda a, b: ("and", _imp(("dia", a), neg(("box", neg(a)))), _imp(neg(("box", neg(a))), ("dia", a))), P.LOGICS),
    "box-and": (lambda a, b: _imp(("box", ("and", a, b)), ("and", ("box", a), ("box", b))), P.LOGICS),
    "dia-or": (lambda a, b: _imp(("dia", ("or", a, b)), ("or", ("dia", a), ("dia", b))), P.LOGICS),
    "T": (lambda a, b: _imp(("box", a), a), ("t", "s4")),
    "D": (lambda a, b: _imp(("box", a), ("dia", a)), ("d", "t", "d4", "s4")),
    "4": (lambda a, b: _imp(("box", a), ("box", ("box", a))), ("k4", "d4", "s4")),
    "B": (lambda a, b: _imp(a, ("box", ("dia", a))), ()),
    "5": (lambda a, b: _imp(("dia", a), ("box", ("dia", a))), ()),
}

#: Open probes (assumptions, or a target off the root): schema ->
#: (assumptions and target of A and B, logics where every instance is valid).
OPEN_SCHEMAS = {
    "mp": (lambda a, b: ([(a, ()), (_imp(a, b), ())], (b, ())), P.LOGICS),
    "box-e1": (lambda a, b: ([(("box", a), ())], (a, ("x",))), P.LOGICS),
    "dia-i1": (lambda a, b: ([(a, ("x",))], (("dia", a), ())), P.LOGICS),
    "box-e2": (lambda a, b: ([(("box", a), ())], (a, ("x", "y"))), ("k4", "d4", "s4")),
    "T-open": (lambda a, b: ([(("box", a), ())], (a, ())), ("t", "s4")),
    "dia-e1": (lambda a, b: ([(("dia", a), ())], (a, ("x",))), ()),
    "nec": (lambda a, b: ([(a, ())], (("box", a), ())), ()),
}

#: Valid instances put p, the one atom the model search varies, for A and
#: an atom it keeps false for B, so that an instance costs the same whatever
#: the seed picks.  Refutable instances use literals of p, so that the
#: search can refute them.
CONSTANT_ATOMS = ("q", "r", "s")
REFUTABLE_A = ("p", neg("p"))
CLOSED_BOUNDS = (3, 2, 1)
OPEN_BOUNDS = (2, 2, 1)

#: Per block of 28 probes: 3 closed valid, 1 closed refutable, 11 open
#: valid, 13 open refutable.  The closed probes then take a little under
#: half the busy time; the median falls in the middle of the cheapest open
#: valid probes (modus ponens) and the 90th percentile between two probes
#: of near equal cost, not in a gap between cost groups.
PROBE_BLOCK = (("closed", True, 3), ("closed", False, 1), ("open", True, 11), ("open", False, 13))


def _pairs(schemas, valid):
    """(schema, logic) pairs with the given answer, in round-robin order over
    the logics, each logic starting at a different schema."""
    by_logic = []
    for j, lg in enumerate(P.LOGICS):
        names = [n for n, (_, logics) in schemas.items() if (lg in logics) == valid]
        names = names[j % len(names):] + names[: j % len(names)]
        by_logic.append([(n, lg) for n in names])
    out = []
    while any(by_logic):
        for group in by_logic:
            if group:
                out.append(group.pop(0))
    return out


@dataclass
class ProbeItem:
    """A consequence probe given as formula texts, with its known answer."""

    cls: str  # closed | open
    schema: str
    logic: str
    gamma: tuple  # ((formula text, position), ...)
    target: tuple  # (formula text, position)
    bounds: tuple
    valid: bool
    formulas: tuple = ()  # the same formulas as forms
    order: int = 0  # place in the fixed schedule, before shuffling


def countermodel(seed: int, blocks: int = 2) -> list[ProbeItem]:
    rng = random.Random(seed)
    cycles = {
        (cls, valid): _pairs(CLOSED_SCHEMAS if cls == "closed" else OPEN_SCHEMAS, valid)
        for cls, valid, _ in PROBE_BLOCK
    }
    used = {key: 0 for key in cycles}
    items = []
    for _ in range(blocks):
        block = []
        for cls, valid, count in PROBE_BLOCK:
            for _ in range(count):
                pairs = cycles[(cls, valid)]
                name, logic = pairs[used[(cls, valid)] % len(pairs)]
                used[(cls, valid)] += 1
                if valid:
                    a, b = "p", rng.choice(CONSTANT_ATOMS)
                else:
                    a, b = rng.choice(REFUTABLE_A), "q"
                if cls == "closed":
                    gamma, target = [], (CLOSED_SCHEMAS[name][0](a, b), ())
                    bounds = CLOSED_BOUNDS
                else:
                    gamma, target = OPEN_SCHEMAS[name][0](a, b)
                    bounds = OPEN_BOUNDS
                block.append(ProbeItem(
                    cls, name, logic,
                    tuple((dump(f), pos) for f, pos in gamma), (dump(target[0]), target[1]),
                    bounds, valid, (tuple(gamma), target), len(items) + len(block),
                ))
        rng.shuffle(block)
        items.extend(block)
    return items
