"""Proofs built by construction, with their answers known in advance.

``Pf`` is a proof-file node together with what the rules make of it: its
conclusion, its open assumptions and the logic-dependent features it uses
(step lengths, existence premises, ``bot-c``).  The rule functions below
refuse any application whose shape is wrong, so a ``Pf`` they return is
valid in every system that ``valid_in`` accepts.  The deliberately broken
proofs are made by the ``bad_*`` helpers; each marks the one node that
breaks, and the mark's path from the root is tracked as the proof grows.
"""

from __future__ import annotations

from dataclasses import dataclass

from forms import BOT, neg

LOGICS = ("k", "d", "t", "k4", "d4", "s4")
FLAVORS = ("classical", "intuitionistic")
PARTIAL = frozenset({"k", "k4"})

#: Step lengths each logic allows on box-e and dia-i: the benchmark's own
#: copy of the per-logic table (k, d: one token; t: at most one; k4, d4: at
#: least one; s4: any).
STEP_OK = {
    "k": lambda n: n == 1,
    "d": lambda n: n == 1,
    "t": lambda n: n <= 1,
    "k4": lambda n: n >= 1,
    "d4": lambda n: n >= 1,
    "s4": lambda n: True,
}


class BuildError(Exception):
    """A rule was applied where it does not fit (a benchmark bug)."""


@dataclass(frozen=True)
class Pf:
    node: tuple
    formula: object  # None for an existence leaf
    pos: tuple
    opens: tuple  # ((label, content), ...); content ("p", f, pos) | ("e", pos)
    steps: frozenset  # (step length, with existence premise) of box-e/dia-i
    feats: frozenset  # subset of {"bot-c", "ehyp", "e-discharge"}
    size: int
    depth: int
    mark: tuple | None = None  # path to the broken node, if any
    mark_rule: str = ""  # its rule
    mark_kind: str = ""  # how it breaks: a key of BREAK_KEYWORDS


def _up(rule_node, prems, formula, pos, opens, *, steps=(), feats=()):
    m, mr, mk = None, "", ""
    for i, p in enumerate(prems):
        if p.mark is not None:
            if m is not None:
                raise BuildError("two broken nodes in one proof")
            m, mr, mk = (i,) + p.mark, p.mark_rule, p.mark_kind
    label_content: dict = {}
    for lab, c in opens:
        if label_content.setdefault(lab, c) != c:
            raise BuildError(f"label {lab} open with two contents")
    return Pf(
        node=rule_node,
        formula=formula,
        pos=pos,
        opens=tuple(opens),
        steps=frozenset(steps).union(*(p.steps for p in prems)),
        feats=frozenset(feats).union(*(p.feats for p in prems)),
        size=1 + sum(p.size for p in prems),
        depth=1 + max((p.depth for p in prems), default=0),
        mark=m,
        mark_rule=mr,
        mark_kind=mk,
    )


def _merge(*prems):
    out = []
    for p in prems:
        out.extend(p.opens)
    return out


def _discharge(opens, labels, want):
    """Remove the leaves bound by ``labels``; each must carry ``want``."""
    kept = []
    for lab, c in opens:
        if lab in labels:
            if c != want:
                raise BuildError(f"discharging {lab}: {c} is not {want}")
        else:
            kept.append((lab, c))
    return kept


def _bound(opens, labels):
    return [c for lab, c in opens if lab in labels]


def _prefixes(positions):
    out = set()
    for p in positions:
        for i in range(len(p) + 1):
            out.add(p[:i])
    return out


# --- rules -----------------------------------------------------------------


def hyp(label, f, pos=()):
    pos = tuple(pos)
    return _up(("hyp", label, f, pos), (), f, pos, [(label, ("p", f, pos))])


def ehyp(label, pos):
    pos = tuple(pos)
    return _up(("ehyp", label, pos), (), None, pos, [(label, ("e", pos))], feats={"ehyp"})


def _need_p(*prems):
    for p in prems:
        if p.formula is None:
            raise BuildError("an existence leaf used as a proof premise")


def and_i(a, b):
    _need_p(a, b)
    if a.pos != b.pos:
        raise BuildError("and-i premises at different positions")
    return _up(("and-i", a.node, b.node), (a, b), ("and", a.formula, b.formula), a.pos, _merge(a, b))


def and_e(which, a):
    _need_p(a)
    if not (isinstance(a.formula, tuple) and a.formula[0] == "and"):
        raise BuildError("and-e on a non-conjunction")
    return _up((f"and-e{which}", a.node), (a,), a.formula[which], a.pos, _merge(a))


def or_i(which, other, a):
    _need_p(a)
    f = ("or", a.formula, other) if which == 1 else ("or", other, a.formula)
    return _up((f"or-i{which}", other, a.node), (a,), f, a.pos, _merge(a))


def or_e(major, l1, m1, l2, m2):
    _need_p(major, m1, m2)
    f = major.formula
    if not (isinstance(f, tuple) and f[0] == "or"):
        raise BuildError("or-e on a non-disjunction")
    if (m1.formula, m1.pos) != (m2.formula, m2.pos):
        raise BuildError("or-e cases conclude differently")
    o1 = _discharge(m1.opens, {l1}, ("p", f[1], major.pos))
    o2 = _discharge(m2.opens, {l2}, ("p", f[2], major.pos))
    node = ("or-e", major.node, (l1,), m1.node, (l2,), m2.node)
    return _up(node, (major, m1, m2), m1.formula, m1.pos, list(major.opens) + o1 + o2)


def imp_i(label, a, ante=None):
    """Discharge ``label``; ``ante`` is required (and printed) when the
    discharge binds no leaf."""
    _need_p(a)
    bound = _bound(a.opens, {label})
    if ante is None:
        if not bound:
            raise BuildError("vacuous imp-i needs an antecedent")
        ante = bound[0][1]
        node = ("imp-i", (label,), a.node)
    else:
        node = ("imp-i", (label,), a.node) if bound else ("imp-i", (label,), a.node, ante, a.pos)
    opens = _discharge(a.opens, {label}, ("p", ante, a.pos))
    return _up(node, (a,), ("imp", ante, a.formula), a.pos, opens)


def imp_e(major, minor):
    _need_p(major, minor)
    f = major.formula
    if not (isinstance(f, tuple) and f[0] == "imp") or f[1] != minor.formula:
        raise BuildError("imp-e premises do not fit")
    if major.pos != minor.pos:
        raise BuildError("imp-e premises at different positions")
    return _up(("imp-e", major.node, minor.node), (major, minor), f[2], major.pos, _merge(major, minor))


def bot_c(label, a, f, pos):
    _need_p(a)
    pos = tuple(pos)
    if a.formula != BOT:
        raise BuildError("bot-c premise is not absurdity")
    opens = _discharge(a.opens, {label}, ("p", neg(f), pos))
    return _up(("bot-c", (label,), a.node, f, pos), (a,), f, pos, opens, feats={"bot-c"})


def bot_i(a, f, pos):
    _need_p(a)
    pos = tuple(pos)
    if a.formula != BOT or not isinstance(f, str) or (f == BOT and pos == a.pos):
        raise BuildError("bot-i does not fit")
    return _up(("bot-i", a.node, f, pos), (a,), f, pos, _merge(a))


def _epremise(e, want):
    if e is None:
        return ()
    if e.formula is not None or e.node[0] != "ehyp" or e.pos != want:
        raise BuildError("existence premise does not fit")
    return (e,)


def box_e(major, beta, e=None):
    _need_p(major)
    beta = tuple(beta)
    f = major.formula
    if not (isinstance(f, tuple) and f[0] == "box"):
        raise BuildError("box-e on a non-necessity")
    pos = major.pos + beta
    extra = _epremise(e, pos)
    node = ("box-e", major.node, beta) + tuple(x.node for x in extra)
    return _up(node, (major,) + extra, f[1], pos, _merge(major, *extra), steps={(len(beta), bool(extra))})


def dia_i(beta, a, e=None):
    _need_p(a)
    beta = tuple(beta)
    if a.pos[len(a.pos) - len(beta) :] != beta:
        raise BuildError("dia-i step is not a suffix of the premise position")
    extra = _epremise(e, a.pos)
    node = ("dia-i", beta, a.node) + tuple(x.node for x in extra)
    base = a.pos[: len(a.pos) - len(beta)]
    return _up(node, (a,) + extra, ("dia", a.formula), base, _merge(a, *extra), steps={(len(beta), bool(extra))})


def box_i(token, elabels, a, *, fresh=True):
    _need_p(a)
    if not a.pos or a.pos[-1] != token:
        raise BuildError("box-i token is not the premise's last token")
    opens = _discharge(a.opens, set(elabels), ("e", a.pos))
    if fresh and a.pos in _prefixes(c[-1] for _, c in opens):
        raise BuildError("box-i witness is not fresh")
    node = ("box-i", token, tuple(sorted(elabels)), a.node)
    feats = {"e-discharge"} if elabels else ()
    return _up(node, (a,), ("box", a.formula), a.pos[:-1], opens, feats=feats)


def dia_e(major, token, label, elabels, minor):
    _need_p(major, minor)
    f = major.formula
    if not (isinstance(f, tuple) and f[0] == "dia"):
        raise BuildError("dia-e on a non-possibility")
    w = major.pos + (token,)
    opens = _discharge(minor.opens, {label}, ("p", f[1], w))
    opens = _discharge(opens, set(elabels), ("e", w))
    if w in _prefixes([c[-1] for _, c in opens] + [minor.pos]):
        raise BuildError("dia-e witness is not fresh")
    node = ("dia-e", major.node, token, (label,), tuple(sorted(elabels)), minor.node)
    feats = {"e-discharge"} if elabels else ()
    return _up(node, (major, minor), minor.formula, minor.pos, list(major.opens) + opens, feats=feats)


# --- systems ---------------------------------------------------------------


def valid_in(p: Pf, logic: str, flavor: str) -> bool:
    """Whether the logic-dependent conditions hold; shapes hold by construction."""
    if p.mark is not None or p.formula is None:
        return False
    partial = logic in PARTIAL
    if flavor == "intuitionistic" and "bot-c" in p.feats:
        return False
    if not partial and p.feats & {"ehyp", "e-discharge"}:
        return False
    return all(STEP_OK[logic](n) and has_e == partial for n, has_e in p.steps)


# --- deliberate breaks -------------------------------------------------------
#
# Each helper returns a node that the kernel must reject for one named
# reason (a second violation may follow from it), marked so that its path
# is known.  Keywords are the stable parts of the kernel's messages for
# those reasons.

BREAK_KEYWORDS = {
    "step": "step constraint",
    "discharge": "discharged assumption",
    "fresh": "must be fresh",
    "bot-c": "bot-c is available only",
    "ehyp": "existence assumptions require a partial system",
}


def _marked(p: Pf, rule: str, kind: str) -> Pf:
    return Pf(**{**p.__dict__, "mark": (), "mark_rule": rule, "mark_kind": kind})


def bad_step(major, beta, e=None):
    """box-e with a step whose length the target logic does not allow
    (the caller picks the length)."""
    return _marked(box_e(major, beta, e), "box-e", "step")


def bad_discharge(label, a, wrong_ante):
    """imp-i whose explicit antecedent differs from the bound leaf."""
    _need_p(a)
    if not _bound(a.opens, {label}):
        raise BuildError("bad_discharge needs a bound leaf")
    opens = [(lab, c) for lab, c in a.opens if lab != label]
    node = ("imp-i", (label,), a.node, wrong_ante, a.pos)
    return _marked(_up(node, (a,), ("imp", wrong_ante, a.formula), a.pos, opens), "imp-i", "discharge")


def bad_fresh(token, elabels, a):
    """box-i whose witness position is still mentioned by an open leaf."""
    p = box_i(token, elabels, a, fresh=False)
    opens = [c for _, c in p.opens]
    if a.pos not in _prefixes(c[-1] for c in opens):
        raise BuildError("bad_fresh needs a non-fresh witness")
    return _marked(p, "box-i", "fresh")


def mark(p: Pf, rule: str) -> Pf:
    """Mark a node that is itself well formed but breaks in the target
    system (``bot-c`` in the intuitionistic flavor, ``ehyp`` in a total
    logic)."""
    return _marked(p, rule, rule)


# --- axiom derivations -------------------------------------------------------
#
# Closed derivations of the modal axioms, written from the calculus: each
# returns a Pf concluding the axiom instance for formulas ``a`` and ``b``.


def _e(partial, label, pos):
    return ehyp(label, pos) if partial else None


def _el(partial, *labels):
    return set(labels) if partial else set()


def axiom_k(a, b, partial):
    e = _e(partial, "e1", ("x",))
    left = box_e(hyp("u1", ("box", ("imp", a, b))), ("x",), e)
    right = box_e(hyp("u2", ("box", a)), ("x",), e)
    boxed = box_i("x", _el(partial, "e1"), imp_e(left, right))
    return imp_i("u1", imp_i("u2", boxed))


def axiom_t(a, b, partial):
    return imp_i("u1", box_e(hyp("u1", ("box", a)), ()))


def axiom_d(a, b, partial):
    return imp_i("u1", dia_i(("x",), box_e(hyp("u1", ("box", a)), ("x",))))


def axiom_four(a, b, partial):
    e = _e(partial, "e1", ("x", "y"))
    step = box_e(hyp("u1", ("box", a)), ("x", "y"), e)
    inner = box_i("y", _el(partial, "e1"), step)
    return imp_i("u1", box_i("x", set(), inner))


def axiom_dia_dual(a, b, partial):
    na = neg(a)
    e1 = _e(partial, "e1", ("x",))
    got_na = box_e(hyp("u1", ("box", na)), ("x",), e1)
    rooted = bot_i(imp_e(got_na, hyp("u2", a, ("x",))), BOT, ())
    body1 = dia_e(hyp("u3", ("dia", a)), "x", "u2", _el(partial, "e1"), imp_i("u1", rooted))
    dir1 = imp_i("u3", body1)
    e2 = _e(partial, "e2", ("y",))
    dia = dia_i(("y",), hyp("v1", a, ("y",)), e2)
    moved = bot_i(imp_e(hyp("v2", neg(("dia", a))), dia), BOT, ("y",))
    boxed = box_i("y", _el(partial, "e2"), imp_i("v1", moved))
    contra = imp_e(hyp("v3", neg(("box", na))), boxed)
    dir2 = imp_i("v3", bot_c("v2", contra, ("dia", a), ()))
    return and_i(dir1, dir2)


#: axiom -> (derivation function, logics where it is derivable)
AXIOMS = {
    "k": (axiom_k, LOGICS),
    "t": (axiom_t, ("t", "s4")),
    "d": (axiom_d, ("d", "t", "d4", "s4")),
    "four": (axiom_four, ("k4", "d4", "s4")),
    "dia-dual": (axiom_dia_dual, LOGICS),
}


# --- detour figures ----------------------------------------------------------
#
# Each figure wraps a derivation ``d`` in one detour and returns the wrapped
# derivation.  "Transparent" figures contract back to ``d`` itself; the
# modal figures wrap ``d`` in an expansion whose detours contract to a
# fixed expansion of the base leaf; the commutative figures contract to a
# case split around ``d``.  ``normal_form`` below folds the same rules, so
# the normal form of every chain is known by construction.


class Names:
    """Fresh labels and tokens for one chain."""

    def __init__(self):
        self.n = 0

    def __call__(self, stem):
        self.n += 1
        return f"{stem}{self.n}"


def fig_imp(d, nm, partial, side):
    a = nm("a")
    return imp_e(imp_i(a, hyp(a, d.formula, d.pos)), d)


def fig_and1(d, nm, partial, side):
    return and_e(1, and_i(d, hyp(nm("w"), side, d.pos)))


def fig_and2(d, nm, partial, side):
    return and_e(2, and_i(hyp(nm("w"), side, d.pos), d))


def fig_or1(d, nm, partial, side):
    a, b = nm("a"), nm("b")
    return or_e(or_i(1, side, d), a, hyp(a, d.formula, d.pos), b, hyp(nm("w"), d.formula, d.pos))


def fig_or2(d, nm, partial, side):
    a, b = nm("a"), nm("b")
    return or_e(or_i(2, side, d), a, hyp(nm("w"), d.formula, d.pos), b, hyp(b, d.formula, d.pos))


def fig_box(d, nm, partial, side):
    x = nm("x")
    e = nm("e") if partial else None
    ep = ehyp(e, d.pos + (x,)) if partial else None
    return box_i(x, {e} if partial else set(), box_e(d, (x,), ep))


def fig_dia(d, nm, partial, side):
    x, a = nm("x"), nm("a")
    e = nm("e") if partial else None
    body = d.formula[1]
    ep = ehyp(e, d.pos + (x,)) if partial else None
    minor = dia_i((x,), hyp(a, body, d.pos + (x,)), ep)
    return dia_e(d, x, a, {e} if partial else set(), minor)


def fig_comm_or(d, nm, partial, side):
    b1, b2 = nm("b"), nm("b")
    m = hyp(nm("m"), ("or", side, side), d.pos)
    m1 = and_i(d, hyp(b1, side, d.pos))
    m2 = and_i(hyp(nm("v"), d.formula, d.pos), hyp(b2, side, d.pos))
    return and_e(1, or_e(m, b1, m1, b2, m2))


def fig_comm_dia(d, nm, partial, side):
    x, b = nm("x"), nm("b")
    m = hyp(nm("m"), ("dia", side), d.pos)
    minor = and_i(d, hyp(nm("w"), side, d.pos))
    return and_e(1, dia_e(m, x, b, set(), minor))


FIGURES = {
    "imp": fig_imp,
    "and1": fig_and1,
    "and2": fig_and2,
    "or1": fig_or1,
    "or2": fig_or2,
    "box": fig_box,
    "dia": fig_dia,
    "comm-or": fig_comm_or,
    "comm-dia": fig_comm_dia,
}
TRANSPARENT = ("imp", "and1", "and2", "or1", "or2")


def chain(base, figures, partial, side):
    """Stack the named figures over ``base``, innermost first.

    Returns the chain and its normal form, both as Pf values.  Modal and
    commutative figures are not mixed in one chain: the normal form is
    known by construction only for the two families on their own.
    """
    modal = {"box", "dia"} & set(figures)
    if modal and {"comm-or", "comm-dia"} & set(figures):
        raise BuildError("modal and commutative figures in one chain")
    nm, fresh = Names(), Names()
    d = nf = base
    for name in figures:
        d = FIGURES[name](d, nm, partial, side)
        if name == "comm-or":
            # and-e1 commutes into both cases; each case's and-pair contracts.
            m = hyp(fresh("m"), ("or", side, side), d.pos)
            v = hyp(fresh("v"), nf.formula, nf.pos)
            nf = or_e(m, fresh("b"), nf, fresh("b"), v)
        elif name == "comm-dia":
            m = hyp(fresh("m"), ("dia", side), d.pos)
            nf = dia_e(m, fresh("x"), fresh("b"), set(), nf)
    if modal:
        # Every detour contracts; one expansion of the base leaf remains.
        nf = FIGURES[modal.pop()](base, fresh, partial, side)
    return d, nf
