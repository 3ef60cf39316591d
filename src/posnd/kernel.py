"""Proof kernel: derivation trees, checking, and position-aware transforms.

A derivation is an immutable tree of rule applications.  Each node stores its
rule name, premise subtrees, and the data the rule needs (discharge label
sets, a recorded step suffix, a witness token, ...).  Conclusions are computed
bottom-up on a best-effort basis, so ill-shaped trees are representable; the
checker reports every violation instead of refusing to build the tree.

The checker validates, in one post-order pass over the tree:

* rule shapes (premise formulas and positions fit the rule),
* per-system constraints on the recorded step suffix of ``box-e``/``dia-i``,
* the existence-premise discipline (required for the partial systems ``k``
  and ``k4``, forbidden for the total ones),
* freshness of witness positions for ``box-i``/``dia-e``,
* flavor restrictions (``bot-c`` is classical-only),
* assumption bookkeeping: open assumptions form a multiset, a label in
  scope always carries one content, and discharge removes every open leaf
  bound by the discharging rule.

The pass walks the tree on an explicit stack, so a derivation's depth is not
bounded by the interpreter's recursion limit.  Each node's open assumptions
are a map from label to a multiset of contents.  A discharge pops just the
labels it binds; the premises' maps are merged into the largest one, and
only the labels of the smaller maps are tested for a second content, since
no other label can gain one.  Witness freshness is a prefix test over the
open positions left after the discharge.  The cost is linear in the number
of nodes plus the smaller-into-larger merging (an open assumption moves
O(log n) times), plus one scan of the open positions per ``box-i``/``dia-e``.
"""

from __future__ import annotations

import itertools
import re
from dataclasses import dataclass

from . import _sexpr
from ._sexpr import ParseError, QStr
from .syntax import (
    Atom,
    Bottom,
    And,
    Or,
    Imp,
    Box,
    Dia,
    EFormula,
    Formula,
    PFormula,
    Position,
    RESERVED_TOKEN_PREFIX,
    _formula_from_sexpr,
    _formula_to_sexpr,
    _position_from_sexpr,
    concat,
    neg,
    parse_formula,
    prefix_replace,
    print_formula,
    print_position,
    valid_user_token,
)

LOGICS = ("k", "d", "t", "k4", "d4", "s4")
FLAVORS = ("classical", "intuitionistic")
PARTIAL_LOGICS = frozenset({"k", "k4"})

RULES = (
    "hyp",
    "ehyp",
    "and-i",
    "and-e1",
    "and-e2",
    "or-i1",
    "or-i2",
    "or-e",
    "imp-i",
    "imp-e",
    "bot-c",
    "bot-i",
    "box-i",
    "box-e",
    "dia-i",
    "dia-e",
)

INTRO_RULES = frozenset({"and-i", "or-i1", "or-i2", "imp-i", "box-i", "dia-i"})
ELIM_RULES = frozenset(
    {"and-e1", "and-e2", "or-e", "imp-e", "box-e", "dia-e"}
)
JOIN_RULES = frozenset({"or-e", "dia-e"})

#: A name the s-expression reader reads back as one symbol (unless it is all
#: digits, which reads as an integer).
_SYMBOL_RE = re.compile(r'[^\s();"]+')


@dataclass(frozen=True)
class System:
    """A logic (accessibility discipline) paired with a proof flavor."""

    logic: str
    flavor: str = "classical"

    def __post_init__(self) -> None:
        if self.logic not in LOGICS:
            raise ValueError(f"unknown logic {self.logic!r}; expected one of {LOGICS}")
        if self.flavor not in FLAVORS:
            raise ValueError(
                f"unknown flavor {self.flavor!r}; expected one of {FLAVORS}"
            )

    @property
    def partial(self) -> bool:
        """True when positions may denote missing worlds (``k``, ``k4``)."""
        return self.logic in PARTIAL_LOGICS


@dataclass(frozen=True)
class Assumption:
    """One open assumption: a label with its assumed content."""

    label: str
    content: PFormula | EFormula


@dataclass(frozen=True)
class Violation:
    """One checker finding, located by the premise-index path from the root."""

    path: tuple[int, ...]
    rule: str
    message: str


@dataclass(frozen=True)
class CheckReport:
    ok: bool
    violations: tuple[Violation, ...]
    open_assumptions: tuple[Assumption, ...]


class KernelError(Exception):
    """Base class for kernel-raised errors."""


class SubstitutionUnsound(KernelError):
    """Position substitution produced a tree that no longer checks."""

    def __init__(self, message: str, violations: tuple[Violation, ...]) -> None:
        super().__init__(message)
        self.violations = violations


class NotExpandable(KernelError):
    """Absurdity expansion hit a possibility subformula in a partial system."""

    def __init__(self, message: str, subformula: Formula) -> None:
        super().__init__(message)
        self.subformula = subformula


class UnsupportedPair(KernelError):
    """Requested a built-in derivation outside its supported logics."""


@dataclass(frozen=True)
class Derivation:
    """One rule application; premises are complete subderivations.

    ``conclusion`` is always the best-effort result computed from the rule,
    the premises, and the node data — never trusted input.  Fields beyond
    ``rule``/``premises``/``conclusion`` are used only by the rules that
    need them and stay at their defaults elsewhere.
    """

    rule: str
    premises: tuple["Derivation", ...]
    conclusion: PFormula | EFormula
    label: str | None = None
    content: PFormula | EFormula | None = None
    ante: PFormula | None = None
    other: Formula | None = None
    target: PFormula | None = None
    discharges: tuple[frozenset[str], ...] = ()
    e_discharges: frozenset[str] = frozenset()
    beta: Position | None = None
    token: str | None = None

    def __iter__(self):
        yield self
        for p in self.premises:
            yield from p


def _pf(d: Derivation) -> PFormula:
    """The premise's p-formula conclusion, with a harmless stand-in when the
    premise concludes an existence assumption (the checker flags that)."""
    c = d.conclusion
    if isinstance(c, PFormula):
        return c
    return PFormula(Bottom(), c.position)


def _mk(
    rule: str,
    premises: tuple[Derivation, ...],
    *,
    label: str | None = None,
    content: PFormula | EFormula | None = None,
    ante: PFormula | None = None,
    other: Formula | None = None,
    target: PFormula | None = None,
    discharges: tuple[frozenset[str], ...] = (),
    e_discharges: frozenset[str] = frozenset(),
    beta: Position | None = None,
    token: str | None = None,
) -> Derivation:
    """Build a node, computing its best-effort conclusion."""
    if rule == "hyp" or rule == "ehyp":
        concl: PFormula | EFormula = content  # type: ignore[assignment]
    elif rule == "and-i":
        l, r = _pf(premises[0]), _pf(premises[1])
        concl = PFormula(And(l.formula, r.formula), l.position)
    elif rule == "and-e1":
        c = _pf(premises[0])
        concl = (
            PFormula(c.formula.left, c.position) if isinstance(c.formula, And) else c
        )
    elif rule == "and-e2":
        c = _pf(premises[0])
        concl = (
            PFormula(c.formula.right, c.position) if isinstance(c.formula, And) else c
        )
    elif rule == "or-i1":
        c = _pf(premises[0])
        concl = PFormula(Or(c.formula, other), c.position)
    elif rule == "or-i2":
        c = _pf(premises[0])
        concl = PFormula(Or(other, c.formula), c.position)
    elif rule == "or-e":
        concl = _pf(premises[1])
    elif rule == "imp-i":
        c = _pf(premises[0])
        a = ante if ante is not None else PFormula(Bottom(), c.position)
        concl = PFormula(Imp(a.formula, c.formula), c.position)
    elif rule == "imp-e":
        c = _pf(premises[0])
        concl = (
            PFormula(c.formula.right, c.position) if isinstance(c.formula, Imp) else c
        )
    elif rule in ("bot-c", "bot-i"):
        concl = target  # type: ignore[assignment]
    elif rule == "box-i":
        c = _pf(premises[0])
        concl = PFormula(Box(c.formula), c.position[:-1] if c.position else ())
    elif rule == "box-e":
        c = _pf(premises[0])
        body = c.formula.body if isinstance(c.formula, Box) else c.formula
        concl = PFormula(body, concat(c.position, beta or ()))
    elif rule == "dia-i":
        c = _pf(premises[0])
        b = beta or ()
        pos = c.position
        base = pos[: len(pos) - len(b)] if pos[len(pos) - len(b) :] == b else pos
        concl = PFormula(Dia(c.formula), base)
    elif rule == "dia-e":
        concl = _pf(premises[1])
    else:
        raise ValueError(f"unknown rule {rule!r}")
    return Derivation(
        rule=rule,
        premises=premises,
        conclusion=concl,
        label=label,
        content=content,
        ante=ante,
        other=other,
        target=target,
        discharges=discharges,
        e_discharges=e_discharges,
        beta=beta,
        token=token,
    )


# --- constructors ----------------------------------------------------------


def hyp(label: str, formula: Formula, position: Position) -> Derivation:
    """Assume ``formula`` at ``position`` under ``label``."""
    return _mk("hyp", (), label=label, content=PFormula(formula, position))


def ehyp(label: str, position: Position) -> Derivation:
    """Assume the existence of ``position`` (partial systems only)."""
    return _mk("ehyp", (), label=label, content=EFormula(position))


def and_i(left: Derivation, right: Derivation) -> Derivation:
    return _mk("and-i", (left, right))


def and_e1(premise: Derivation) -> Derivation:
    return _mk("and-e1", (premise,))


def and_e2(premise: Derivation) -> Derivation:
    return _mk("and-e2", (premise,))


def or_i1(other: Formula, premise: Derivation) -> Derivation:
    """From ``A`` conclude ``A or other``."""
    return _mk("or-i1", (premise,), other=other)


def or_i2(other: Formula, premise: Derivation) -> Derivation:
    """From ``B`` conclude ``other or B``."""
    return _mk("or-i2", (premise,), other=other)


def or_e(
    major: Derivation,
    labels1: frozenset[str],
    minor1: Derivation,
    labels2: frozenset[str],
    minor2: Derivation,
) -> Derivation:
    return _mk(
        "or-e",
        (major, minor1, minor2),
        discharges=(frozenset(labels1), frozenset(labels2)),
    )


def imp_i(
    labels: frozenset[str], premise: Derivation, ante: PFormula | None = None
) -> Derivation:
    """Discharge ``labels`` and introduce an implication.

    When ``labels`` bind open leaves, the antecedent may be omitted and is
    read off the bound leaves; a vacuous discharge needs an explicit ``ante``.
    """
    if ante is None:
        bound = bound_leaf_contents(premise, frozenset(labels), "p")
        if not bound:
            raise ValueError(
                "imp_i with a vacuous discharge needs an explicit antecedent"
            )
        ante = bound[0]
    return _mk("imp-i", (premise,), discharges=(frozenset(labels),), ante=ante)


def imp_e(major: Derivation, minor: Derivation) -> Derivation:
    return _mk("imp-e", (major, minor))


def bot_c(
    labels: frozenset[str],
    premise: Derivation,
    formula: Formula,
    position: Position,
) -> Derivation:
    """Classical absurdity: discharge the negated goal, conclude the goal."""
    return _mk(
        "bot-c",
        (premise,),
        discharges=(frozenset(labels),),
        target=PFormula(formula, position),
    )


def bot_i(premise: Derivation, formula: Formula, position: Position) -> Derivation:
    """Intuitionistic absurdity for atomic targets, possibly repositioned."""
    return _mk("bot-i", (premise,), target=PFormula(formula, position))


def box_i(
    token: str, e_labels: frozenset[str], premise: Derivation
) -> Derivation:
    return _mk("box-i", (premise,), token=token, e_discharges=frozenset(e_labels))


def box_e(
    major: Derivation, beta: Position, e_premise: Derivation | None = None
) -> Derivation:
    prems = (major,) if e_premise is None else (major, e_premise)
    return _mk("box-e", prems, beta=tuple(beta))


def dia_i(
    beta: Position, premise: Derivation, e_premise: Derivation | None = None
) -> Derivation:
    prems = (premise,) if e_premise is None else (premise, e_premise)
    return _mk("dia-i", prems, beta=tuple(beta))


def dia_e(
    major: Derivation,
    token: str,
    labels: frozenset[str],
    e_labels: frozenset[str],
    minor: Derivation,
) -> Derivation:
    return _mk(
        "dia-e",
        (major, minor),
        token=token,
        discharges=(frozenset(labels),),
        e_discharges=frozenset(e_labels),
    )


# --- scope bookkeeping -----------------------------------------------------


def _scopes(d: Derivation) -> list[tuple[int, frozenset[str], str]]:
    """Discharge scopes of a node: (premise index, labels, kind)."""
    out: list[tuple[int, frozenset[str], str]] = []
    if d.rule == "imp-i":
        out.append((0, d.discharges[0], "p"))
    elif d.rule == "or-e":
        out.append((1, d.discharges[0], "p"))
        out.append((2, d.discharges[1], "p"))
    elif d.rule == "bot-c":
        out.append((0, d.discharges[0], "p"))
    elif d.rule == "dia-e":
        out.append((1, d.discharges[0], "p"))
        out.append((1, d.e_discharges, "e"))
    elif d.rule == "box-i":
        out.append((0, d.e_discharges, "e"))
    return out


def _shadowed(d: Derivation, idx: int, kind: str) -> frozenset[str]:
    """Labels rebound over premise ``idx`` of ``d`` for the given kind."""
    acc: set[str] = set()
    for i, labels, k in _scopes(d):
        if i == idx and k == kind:
            acc |= labels
    return frozenset(acc)


def bound_leaf_contents(
    d: Derivation, labels: frozenset[str], kind: str
) -> list[PFormula | EFormula]:
    """Contents of the open leaves a discharge over ``d`` would bind."""
    out: list[PFormula | EFormula] = []

    def walk(n: Derivation, active: frozenset[str]) -> None:
        if not active:
            return
        if n.rule == "hyp":
            if kind == "p" and n.label in active:
                out.append(n.conclusion)
            return
        if n.rule == "ehyp":
            if kind == "e" and n.label in active:
                out.append(n.conclusion)
            return
        for i, p in enumerate(n.premises):
            walk(p, active - _shadowed(n, i, kind))

    walk(d, frozenset(labels))
    return out


def all_labels(d: Derivation) -> frozenset[str]:
    """Every label mentioned anywhere in the tree (leaves and binders)."""
    acc: set[str] = set()
    for n in d:
        if n.label is not None:
            acc.add(n.label)
        for s in n.discharges:
            acc |= s
        acc |= n.e_discharges
    return frozenset(acc)


def plug(
    d: Derivation,
    labels: frozenset[str],
    replacement: Derivation,
    kind: str = "p",
) -> Derivation:
    """Replace every free leaf with a label in ``labels`` by ``replacement``.

    Only leaves bound at the top (not re-bound deeper) are replaced.  The
    caller is responsible for label hygiene of ``replacement``.
    """

    def walk(n: Derivation, active: frozenset[str]) -> Derivation:
        if not active:
            return n
        if n.rule == "hyp":
            if kind == "p" and n.label in active:
                return replacement
            return n
        if n.rule == "ehyp":
            if kind == "e" and n.label in active:
                return replacement
            return n
        prems = tuple(
            walk(p, active - _shadowed(n, i, kind))
            for i, p in enumerate(n.premises)
        )
        if prems == n.premises:
            return n
        return _rebuild(n, prems)

    return walk(d, frozenset(labels))


def _rebuild(n: Derivation, premises: tuple[Derivation, ...], **over) -> Derivation:
    data = dict(
        label=n.label,
        content=n.content,
        ante=n.ante,
        other=n.other,
        target=n.target,
        discharges=n.discharges,
        e_discharges=n.e_discharges,
        beta=n.beta,
        token=n.token,
    )
    data.update(over)
    return _mk(n.rule, premises, **data)


def relabel_binders(d: Derivation, forbidden: frozenset[str]) -> Derivation:
    """Rename every discharge label to a fresh one, avoiding ``forbidden``.

    Free leaves keep their labels; bound leaves track their binder.  The
    result is check-equivalent to ``d``.
    """
    used = set(forbidden) | set(all_labels(d))
    counter = itertools.count(1)

    def fresh() -> str:
        while True:
            cand = f"l{next(counter)}"
            if cand not in used:
                used.add(cand)
                return cand

    def go(n: Derivation, penv: dict, eenv: dict) -> Derivation:
        if n.rule == "hyp":
            new = penv.get(n.label, n.label)
            if new == n.label:
                return n
            return _mk("hyp", (), label=new, content=n.content)
        if n.rule == "ehyp":
            new = eenv.get(n.label, n.label)
            if new == n.label:
                return n
            return _mk("ehyp", (), label=new, content=n.content)
        renames: dict[tuple[int, str], dict[str, str]] = {}
        for i, labels, k in _scopes(n):
            m = renames.setdefault((i, k), {})
            for lab in sorted(labels):
                m[lab] = fresh()
        prems = []
        for i, p in enumerate(n.premises):
            pe = dict(penv)
            ee = dict(eenv)
            for lab in _shadowed(n, i, "p"):
                pe.pop(lab, None)
            for lab in _shadowed(n, i, "e"):
                ee.pop(lab, None)
            pe.update(renames.get((i, "p"), {}))
            ee.update(renames.get((i, "e"), {}))
            prems.append(go(p, pe, ee))
        over: dict = {}
        if n.discharges:
            new_discharges = []
            for scope_pos, old in enumerate(n.discharges):
                slot = _discharge_slot(n.rule, scope_pos)
                m = renames.get((slot, "p"), {})
                new_discharges.append(frozenset(m[lab] for lab in old))
            over["discharges"] = tuple(new_discharges)
        if n.e_discharges:
            slot = 0 if n.rule == "box-i" else 1
            m = renames.get((slot, "e"), {})
            over["e_discharges"] = frozenset(m[lab] for lab in n.e_discharges)
        return _rebuild(n, tuple(prems), **over)

    return go(d, {}, {})


def _discharge_slot(rule: str, scope_pos: int) -> int:
    if rule == "or-e":
        return 1 + scope_pos
    if rule == "dia-e":
        return 1
    return 0


# --- checking --------------------------------------------------------------

_BETA_LENGTH = {
    # logic -> predicate on len(beta), described for messages
    "k": (lambda n: n == 1, "exactly one token"),
    "d": (lambda n: n == 1, "exactly one token"),
    "t": (lambda n: n <= 1, "at most one token"),
    "k4": (lambda n: n >= 1, "at least one token"),
    "d4": (lambda n: n >= 1, "at least one token"),
    "s4": (lambda n: True, "any number of tokens"),
}


def check(
    d: Derivation, system: System, *, t_strict_empty_beta: bool = False
) -> CheckReport:
    """Check ``d`` against ``system``; never raises on a bad tree.

    Returns every violation found together with the open-assumption
    multiset; ``ok`` holds exactly when there are no violations.
    """
    violations: list[Violation] = []
    path: list[int] = []  # premise indices from the root to the current node

    def bad(where, rule: str, message: str) -> None:
        violations.append(Violation(tuple(where), rule, message))

    # Post-order walk on an explicit stack.  A frame holds a node and the
    # open assumptions of its finished premises, one ``label -> {content:
    # count}`` map each; the next premise to visit is the one at the index
    # equal to the number of maps collected so far.
    stack: list[tuple[Derivation, list[dict]]] = [(d, [])]
    while True:
        n, prem_opens = stack[-1]
        k = len(prem_opens)
        if k < len(n.premises):
            path.append(k)
            stack.append((n.premises[k], []))
            continue
        stack.pop()
        rule = n.rule

        # Premise slots that must conclude a p-formula.
        e_slot = 1 if rule in ("box-e", "dia-i") and len(n.premises) == 2 else None
        for i, p in enumerate(n.premises):
            if i == e_slot:
                if p.rule != "ehyp":
                    bad(
                        path,
                        rule,
                        "the existence premise must be an existence assumption leaf",
                    )
            elif p.rule == "ehyp" or isinstance(p.conclusion, EFormula):
                bad(
                    path,
                    rule,
                    "an existence assumption may stand only as the existence "
                    "premise of box-e or dia-i",
                )

        shape_ok = _check_shape(n, path, system, bad)
        if rule in ("box-e", "dia-i"):
            _check_beta(n, path, system, t_strict_empty_beta, bad)
            _check_e_discipline(n, path, system, bad)
        if rule == "ehyp" and not system.partial:
            bad(path, rule, "existence assumptions require a partial system")
        if n.e_discharges and not system.partial:
            bad(
                path,
                rule,
                "existence discharge requires a partial system",
            )
        if rule == "bot-c" and system.flavor != "classical":
            bad(
                path,
                rule,
                "bot-c is available only in the classical flavor",
            )

        # Discharge: pop the labels in scope.
        for scope_pos, (idx, labels, kind) in enumerate(_scopes(n)):
            opens = prem_opens[idx]
            for lab in labels:
                contents = opens.pop(lab, None)
                if contents is None:
                    continue
                expected = _expected_discharge(n, idx, kind, scope_pos, shape_ok)
                if expected is None:
                    continue
                want_kind = EFormula if kind == "e" else PFormula
                for content in contents:
                    if not isinstance(content, want_kind) or content != expected:
                        bad(
                            path,
                            rule,
                            f"discharged assumption {lab!r} has content "
                            f"{_content_str(content)} but the rule requires "
                            f"{_content_str(expected)}",
                        )

        # Freshness (needs sensible shapes and the post-discharge opens).
        if shape_ok and rule == "box-i":
            proper = n.conclusion.position + (n.token,)
            if _opens_below(prem_opens[0], proper):
                bad(
                    path,
                    rule,
                    f"witness position {print_position(proper)} must be fresh "
                    "for the remaining open assumptions",
                )
        if shape_ok and rule == "dia-e":
            proper = _pf(n.premises[0]).position + (n.token,)
            gamma = n.conclusion.position if isinstance(n.conclusion, PFormula) else ()
            if gamma[: len(proper)] == proper or _opens_below(prem_opens[1], proper):
                bad(
                    path,
                    rule,
                    f"witness position {print_position(proper)} must be fresh "
                    "for the conclusion and remaining open assumptions",
                )

        if rule == "hyp" or rule == "ehyp":
            prem_opens.append({n.label: {n.conclusion: 1}})
        if len(prem_opens) == 1:
            merged = prem_opens[0]
        elif prem_opens:
            merged = _merge_opens(prem_opens, path, rule, bad)
        else:
            merged = {}
        if not stack:
            break
        path.pop()
        stack[-1][1].append(merged)

    if isinstance(d.conclusion, EFormula):
        bad((), d.rule, "a derivation must conclude a p-formula")
    keyed = sorted(
        (
            ((lab or "", _content_str(content)), Assumption(lab, content), cnt)
            for lab, contents in merged.items()
            for content, cnt in contents.items()
        ),
        key=lambda entry: entry[0],
    )
    assumptions = tuple(a for _key, a, cnt in keyed for _ in range(cnt))
    ordered = tuple(sorted(violations, key=lambda v: (v.path, v.rule, v.message)))
    return CheckReport(not ordered, ordered, assumptions)


def _opens_below(opens: dict, proper: Position) -> bool:
    """Whether some open assumption sits at ``proper`` or below it."""
    k = len(proper)
    for contents in opens.values():
        for content in contents:
            if content.position[:k] == proper:
                return True
    return False


def _merge_opens(maps: list[dict], path, rule: str, bad) -> dict:
    """Merge the premises' open-assumption maps into the largest one.

    A label open with two different contents in the merge is a violation,
    unless some premise already had it so (that premise reported it).  Only
    labels of the smaller maps can change, so only they are tested.
    """
    big = max(maps, key=len)
    conflicted_before: dict[str, bool] = {}
    for m in maps:
        if m is big:
            continue
        for lab, contents in m.items():
            into = big.get(lab)
            # ``into`` is the largest premise's own entry on first sight.
            conflicted_before[lab] = len(contents) > 1 or conflicted_before.get(
                lab, into is not None and len(into) > 1
            )
            if into is None:
                big[lab] = contents
            else:
                for content, cnt in contents.items():
                    into[content] = into.get(content, 0) + cnt
    for lab, before in conflicted_before.items():
        if not before and len(big[lab]) > 1:
            bad(
                path,
                rule,
                f"label {lab!r} is open with two different assumed contents",
            )
    return big


def _expected_discharge(
    n: Derivation, idx: int, kind: str, scope_pos: int, shape_ok: bool
) -> PFormula | EFormula | None:
    """The content a discharge at this scope must remove, if determinable."""
    if not shape_ok:
        return None
    if n.rule == "imp-i":
        return n.ante
    if n.rule == "bot-c":
        return PFormula(neg(n.target.formula), n.target.position)
    if n.rule == "or-e":
        major = _pf(n.premises[0])
        lf = major.formula.left if scope_pos == 0 else major.formula.right
        return PFormula(lf, major.position)
    if n.rule == "dia-e":
        major = _pf(n.premises[0])
        witness = major.position + (n.token,)
        if kind == "p":
            return PFormula(major.formula.body, witness)
        return EFormula(witness)
    if n.rule == "box-i":
        prem = _pf(n.premises[0])
        return EFormula(prem.position)
    return None


def _check_shape(n: Derivation, path, system: System, bad) -> bool:
    """Rule-shape clause; returns False when follow-up checks should skip."""
    ok = True
    r = n.rule
    if r == "hyp":
        if not n.label:
            bad(path, r, "assumption leaves need a non-empty label")
            ok = False
    elif r == "ehyp":
        if not n.label:
            bad(path, r, "assumption leaves need a non-empty label")
            ok = False
    elif r == "and-i":
        l, rr = _pf(n.premises[0]), _pf(n.premises[1])
        if l.position != rr.position:
            bad(path, r, "both premises must sit at the same position")
            ok = False
    elif r in ("and-e1", "and-e2"):
        c = _pf(n.premises[0])
        if not isinstance(c.formula, And):
            bad(path, r, "premise must conclude a conjunction")
            ok = False
    elif r in ("or-i1", "or-i2"):
        if n.other is None:
            bad(path, r, "missing the other disjunct")
            ok = False
    elif r == "or-e":
        major = _pf(n.premises[0])
        m1, m2 = _pf(n.premises[1]), _pf(n.premises[2])
        if not isinstance(major.formula, Or):
            bad(path, r, "major premise must conclude a disjunction")
            ok = False
        if m1 != m2:
            bad(path, r, "both case premises must conclude the same p-formula")
            ok = False
    elif r == "imp-i":
        c = _pf(n.premises[0])
        if n.ante is None:
            bad(path, r, "missing antecedent")
            ok = False
        elif n.ante.position != c.position:
            bad(
                path,
                r,
                "the discharged antecedent must sit at the premise position",
            )
            ok = False
    elif r == "imp-e":
        major, minor = _pf(n.premises[0]), _pf(n.premises[1])
        if not isinstance(major.formula, Imp):
            bad(path, r, "major premise must conclude an implication")
            ok = False
        else:
            if minor.formula != major.formula.left:
                bad(path, r, "minor premise must conclude the antecedent")
                ok = False
            if minor.position != major.position:
                bad(path, r, "both premises must sit at the same position")
                ok = False
    elif r == "bot-c":
        c = _pf(n.premises[0])
        if not isinstance(c.formula, Bottom):
            bad(path, r, "premise must conclude absurdity")
            ok = False
        if n.target is None:
            bad(path, r, "missing conclusion data")
            ok = False
    elif r == "bot-i":
        c = _pf(n.premises[0])
        if not isinstance(c.formula, Bottom):
            bad(path, r, "premise must conclude absurdity")
            ok = False
        if n.target is None:
            bad(path, r, "missing conclusion data")
            ok = False
        else:
            if not isinstance(n.target.formula, (Atom, Bottom)):
                bad(path, r, "conclusion must be atomic")
                ok = False
            elif (
                isinstance(n.target.formula, Bottom)
                and n.target.position == c.position
            ):
                bad(
                    path,
                    r,
                    "repositioning absurdity requires a different position",
                )
                ok = False
    elif r == "box-i":
        c = _pf(n.premises[0])
        if not c.position:
            bad(path, r, "premise position must be non-empty")
            ok = False
        elif n.token is None or c.position[-1] != n.token:
            bad(
                path,
                r,
                "witness token must be the last token of the premise position",
            )
            ok = False
    elif r == "box-e":
        c = _pf(n.premises[0])
        if not isinstance(c.formula, Box):
            bad(path, r, "major premise must conclude a necessity formula")
            ok = False
        if n.beta is None:
            bad(path, r, "missing recorded step suffix")
            ok = False
    elif r == "dia-i":
        c = _pf(n.premises[0])
        if n.beta is None:
            bad(path, r, "missing recorded step suffix")
            ok = False
        else:
            b = tuple(n.beta)
            if c.position[len(c.position) - len(b) :] != b:
                bad(
                    path,
                    r,
                    "premise position must end with the recorded step suffix",
                )
                ok = False
    elif r == "dia-e":
        major = _pf(n.premises[0])
        if not isinstance(major.formula, Dia):
            bad(path, r, "major premise must conclude a possibility formula")
            ok = False
        if n.token is None:
            bad(path, r, "missing witness token")
            ok = False
    return ok


def _check_beta(n, path, system: System, t_strict: bool, bad) -> None:
    if n.beta is None:
        return
    length = len(n.beta)
    rule = n.rule
    pred, desc = _BETA_LENGTH[system.logic]
    if system.logic == "t" and t_strict:
        pred, desc = (lambda k: k == 1), "exactly one token"
    if not pred(length):
        bad(
            path,
            rule,
            f"step constraint for logic {system.logic}: {rule} must record "
            f"{desc}, got {length}",
        )


def _check_e_discipline(n, path, system: System, bad) -> None:
    if system.partial:
        if len(n.premises) < 2:
            bad(
                path,
                n.rule,
                f"step constraint for logic {system.logic}: {n.rule} requires "
                "an existence premise in a partial system",
            )
            return
        eprem = n.premises[1]
        if eprem.rule != "ehyp":
            return  # already flagged as a slot violation
        if n.beta is None:
            return
        if n.rule == "box-e":
            want = concat(_pf(n.premises[0]).position, n.beta)
        else:
            want = _pf(n.premises[0]).position
        if eprem.conclusion.position != want:
            bad(
                path,
                n.rule,
                f"existence premise must assume position {print_position(want)}, "
                f"got {print_position(eprem.conclusion.position)}",
            )
    else:
        if len(n.premises) > 1:
            bad(
                path,
                n.rule,
                "existence premises are forbidden in total systems",
            )


def open_assumptions(
    d: Derivation, system: System | None = None
) -> tuple[Assumption, ...]:
    """The open-assumption multiset of ``d`` (sorted, with multiplicity).

    The multiset does not depend on the system; one may be passed anyway
    for symmetry with ``check``.
    """
    return check(d, system or System("s4", "classical")).open_assumptions


def _content_str(c: PFormula | EFormula) -> str:
    if isinstance(c, EFormula):
        return f"E{print_position(c.position)}"
    return f"{print_formula(c.formula)}^{print_position(c.position)}"


# --- the position condition ------------------------------------------------


def check_position_condition(d: Derivation) -> tuple[Violation, ...]:
    """Global witness-position discipline, checked separately from ``check``.

    Every witness position must be introduced by exactly one rule instance,
    and may occur (as a prefix of a node position) only inside that
    instance's scope subtree: the premise of its ``box-i``, or the second
    premise of its ``dia-e``.
    """
    instances: list[tuple[tuple[int, ...], str, Position, tuple[int, ...]]] = []
    positions: list[tuple[tuple[int, ...], Position]] = []

    def walk(n: Derivation, path: tuple[int, ...]) -> None:
        c = n.conclusion
        positions.append((path, c.position))
        if n.rule == "box-i" and n.token is not None and isinstance(c, PFormula):
            proper = c.position + (n.token,)
            instances.append((path, "box-i", proper, path + (0,)))
        if n.rule == "dia-e" and n.token is not None:
            major = _pf(n.premises[0])
            proper = major.position + (n.token,)
            instances.append((path, "dia-e", proper, path + (1,)))
        for i, p in enumerate(n.premises):
            walk(p, path + (i,))

    walk(d, ())
    violations: list[Violation] = []
    seen: dict[Position, tuple[int, ...]] = {}
    for path, rule, proper, _scope in instances:
        if proper in seen:
            violations.append(
                Violation(
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
                    Violation(
                        path,
                        rule,
                        f"witness position {print_position(proper)} occurs "
                        "outside the scope of its introducing rule",
                    )
                )
                break
    return tuple(sorted(violations, key=lambda v: (v.path, v.rule, v.message)))


# --- position transforms ---------------------------------------------------


def map_positions(d: Derivation, fn) -> Derivation:
    """Apply ``fn`` to every absolute position in the tree.

    Recorded step suffixes are recomputed from the mapped endpoint
    positions, and witness tokens from the mapped witness positions, so any
    position-coherent ``fn`` yields a coherent tree.
    """
    prems = tuple(map_positions(p, fn) for p in d.premises)
    over: dict = {}
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
        base = _pf(prems[0]).position
        tgt = fn(concat(_pf(d.premises[0]).position, d.beta))
        over["beta"] = tgt[len(base) :] if tgt[: len(base)] == base else tgt
    if d.rule == "dia-i" and d.beta is not None:
        old_prem = _pf(d.premises[0]).position
        old_base = old_prem[: len(old_prem) - len(d.beta)]
        base = fn(old_base)
        tgt = _pf(prems[0]).position
        over["beta"] = tgt[len(base) :] if tgt[: len(base)] == base else tgt
    if d.rule == "box-i" and d.token is not None:
        prem_pos = _pf(prems[0]).position
        if prem_pos:
            over["token"] = prem_pos[-1]
    if d.rule == "dia-e" and d.token is not None:
        old_proper = _pf(d.premises[0]).position + (d.token,)
        new_proper = fn(old_proper)
        if new_proper:
            over["token"] = new_proper[-1]
    return _rebuild(d, prems, **over)


_FRESH_RE = re.compile(re.escape(RESERVED_TOKEN_PREFIX) + r"([0-9]+)$")


def _fresh_token_start(d: Derivation) -> int:
    best = 0
    for n in d:
        poss = [n.conclusion.position]
        if n.content is not None:
            poss.append(n.content.position)
        if n.ante is not None:
            poss.append(n.ante.position)
        if n.target is not None:
            poss.append(n.target.position)
        for pos in poss:
            for tok in pos:
                m = _FRESH_RE.fullmatch(tok)
                if m:
                    best = max(best, int(m.group(1)) + 1)
    return best


def freshen(d: Derivation) -> Derivation:
    """Rename every witness position to a globally fresh reserved token.

    Children are processed first; each ``box-i``/``dia-e`` then renames its
    own witness position throughout its scope subtree.  On a checking tree
    this preserves the conclusion, the open assumptions, and checkability,
    and (re)establishes the global witness-position discipline.
    """
    counter = itertools.count(_fresh_token_start(d))

    def go(n: Derivation) -> Derivation:
        prems = tuple(go(p) for p in n.premises)
        node = _rebuild(n, prems)
        if node.rule == "box-i" and node.token is not None:
            prem_pos = _pf(node.premises[0]).position
            if prem_pos:
                alpha = prem_pos[:-1]
                old = prem_pos
                new = alpha + (f"{RESERVED_TOKEN_PREFIX}{next(counter)}",)
                scoped = map_positions(
                    node.premises[0], lambda p: prefix_replace(p, old, new)
                )
                node = _rebuild(node, (scoped,), token=new[-1])
        elif node.rule == "dia-e" and node.token is not None:
            major_pos = _pf(node.premises[0]).position
            old = major_pos + (node.token,)
            new = major_pos + (f"{RESERVED_TOKEN_PREFIX}{next(counter)}",)
            scoped = map_positions(
                node.premises[1], lambda p: prefix_replace(p, old, new)
            )
            node = _rebuild(node, (node.premises[0], scoped), token=new[-1])
        return node

    return go(d)


def _drop_trivial_reposition(d: Derivation) -> Derivation:
    """Remove absurdity repositionings whose endpoints collapsed."""
    prems = tuple(_drop_trivial_reposition(p) for p in d.premises)
    node = _rebuild(d, prems)
    if (
        node.rule == "bot-i"
        and node.target is not None
        and isinstance(node.target.formula, Bottom)
        and node.premises[0].conclusion == node.conclusion
    ):
        return node.premises[0]
    return node


def substitute(
    d: Derivation,
    beta: Position,
    gamma: Position,
    system: System,
    *,
    t_strict_empty_beta: bool = False,
) -> Derivation:
    """Rewrite positions by replacing the prefix ``beta`` with ``gamma``.

    Witness positions are freshened first so the replacement cannot capture
    them.  Absurdity repositionings whose two positions collapse are
    removed.  The result is re-checked; if the rewrite broke a rule
    constraint (possible when the replaced prefix cuts through a recorded
    step), ``SubstitutionUnsound`` is raised.
    """
    pre = check(d, system, t_strict_empty_beta=t_strict_empty_beta)
    if not pre.ok:
        raise ValueError("substitute requires a derivation that checks")
    fresh = freshen(d)
    beta = tuple(beta)
    gamma = tuple(gamma)
    mapped = map_positions(fresh, lambda p: prefix_replace(p, beta, gamma))

    def verify(orig: Derivation, new: Derivation) -> None:
        oc, nc = orig.conclusion, new.conclusion
        want = prefix_replace(oc.position, beta, gamma)
        same_formula = (
            type(oc) is type(nc)
            and (isinstance(oc, EFormula) or oc.formula == nc.formula)
        )
        if nc.position != want or not same_formula:
            raise SubstitutionUnsound(
                f"replacing prefix {print_position(beta)} by "
                f"{print_position(gamma)} cuts through a recorded step at "
                f"position {print_position(oc.position)}",
                (),
            )
        for op, np_ in zip(orig.premises, new.premises):
            verify(op, np_)

    verify(fresh, mapped)
    cleaned = _drop_trivial_reposition(mapped)
    post = check(cleaned, system, t_strict_empty_beta=t_strict_empty_beta)
    if not post.ok:
        raise SubstitutionUnsound(
            f"replacing prefix {print_position(beta)} by "
            f"{print_position(gamma)} broke the derivation: "
            + "; ".join(v.message for v in post.violations[:3]),
            post.violations,
        )
    return cleaned


def lift(
    d: Derivation,
    beta: Position,
    system: System,
    *,
    t_strict_empty_beta: bool = False,
) -> Derivation:
    """Shift the whole derivation below the position ``beta``.

    Every position (existence assumptions included) is prefixed by
    ``beta``; the conclusion at position ``p`` moves to ``beta + p``.
    """
    pre = check(d, system, t_strict_empty_beta=t_strict_empty_beta)
    if not pre.ok:
        raise ValueError("lift requires a derivation that checks")
    beta = tuple(beta)
    lifted = map_positions(d, lambda p: concat(beta, p))
    post = check(lifted, system, t_strict_empty_beta=t_strict_empty_beta)
    if not post.ok:
        raise SubstitutionUnsound(
            "lift broke the derivation: "
            + "; ".join(v.message for v in post.violations[:3]),
            post.violations,
        )
    return lifted


# --- absurdity expansion ---------------------------------------------------


def _used_tokens(d: Derivation) -> set[str]:
    toks: set[str] = set()
    for n in d:
        for t in n.conclusion.position:
            toks.add(t)
        if n.content is not None:
            toks.update(n.content.position)
    return toks


def expand_efq(
    target: PFormula, premise: Derivation, system: System
) -> Derivation:
    """Expand a single absurdity step into atomic ones, one per connective.

    ``premise`` must conclude absurdity somewhere; the result concludes
    ``target`` using only atomic absurdity steps and introductions.  In a
    partial system a possibility subformula cannot be expanded (its
    introduction would need an undischargeable existence premise) and
    ``NotExpandable`` is raised naming that subformula.
    """
    base = _pf(premise)
    if not isinstance(base.formula, Bottom):
        raise ValueError("expand_efq needs a premise concluding absurdity")
    if target == base:
        raise ValueError(
            "expand_efq target must differ from the premise conclusion"
        )
    used = _used_tokens(premise) | set(target.position)
    counter = itertools.count(1)

    def fresh_token() -> str:
        while True:
            cand = f"z{next(counter)}"
            if cand not in used:
                used.add(cand)
                return cand

    def build(goal: PFormula) -> Derivation:
        f, alpha = goal.formula, goal.position
        if isinstance(f, (Atom, Bottom)):
            return bot_i(premise, f, alpha)
        if isinstance(f, And):
            return and_i(
                build(PFormula(f.left, alpha)), build(PFormula(f.right, alpha))
            )
        if isinstance(f, Imp):
            return imp_i(
                frozenset(),
                build(PFormula(f.right, alpha)),
                ante=PFormula(f.left, alpha),
            )
        if isinstance(f, Or):
            return or_i1(f.right, build(PFormula(f.left, alpha)))
        if isinstance(f, Box):
            x = fresh_token()
            return box_i(x, frozenset(), build(PFormula(f.body, alpha + (x,))))
        if isinstance(f, Dia):
            if system.partial:
                raise NotExpandable(
                    "cannot expand a possibility formula in a partial system: "
                    + print_formula(f),
                    f,
                )
            x = fresh_token()
            return dia_i((x,), build(PFormula(f.body, alpha + (x,))))
        raise TypeError(f"unknown formula {f!r}")

    return build(target)


# --- built-in derivations --------------------------------------------------

BUILTIN_AXIOMS = ("k", "t", "d", "four", "dia-dual")

BUILTIN_PAIRS: tuple[tuple[str, str], ...] = tuple(
    [("dia-dual", lg) for lg in LOGICS]
    + [("k", lg) for lg in LOGICS]
    + [("t", lg) for lg in ("t", "s4")]
    + [("d", lg) for lg in ("d", "d4", "s4")]
    + [("four", lg) for lg in ("k4", "d4", "s4")]
)


def builtin(
    axiom: str,
    logic: str,
    a: Formula = Atom("p"),
    b: Formula = Atom("q"),
) -> tuple[Derivation, System]:
    """A closed derivation of the named schema in the named logic.

    Supported pairs are listed in ``BUILTIN_PAIRS``; anything else raises
    ``UnsupportedPair``.  All built-ins use the classical flavor.
    """
    if (axiom, logic) not in BUILTIN_PAIRS:
        raise UnsupportedPair(
            f"axiom {axiom!r} is not provided for logic {logic!r}"
        )
    system = System(logic, "classical")
    partial = system.partial
    if axiom == "k":
        d = _builtin_k(a, b, partial)
    elif axiom == "t":
        d = _builtin_t(a)
    elif axiom == "d":
        d = _builtin_d(a)
    elif axiom == "four":
        d = _builtin_four(a, partial)
    else:
        d = _builtin_dia_dual(a, partial)
    return d, system


def _builtin_k(a: Formula, b: Formula, partial: bool) -> Derivation:
    # (box (imp a b)) -> (box a) -> (box b)
    h1 = hyp("u1", Box(Imp(a, b)), ())
    h2 = hyp("u2", Box(a), ())
    e = ehyp("e1", ("x",)) if partial else None
    left = box_e(h1, ("x",), e)
    right = box_e(h2, ("x",), e)
    body = imp_e(left, right)
    boxed = box_i("x", frozenset({"e1"}) if partial else frozenset(), body)
    inner = imp_i(frozenset({"u2"}), boxed)
    return imp_i(frozenset({"u1"}), inner)


def _builtin_t(a: Formula) -> Derivation:
    # (box a) -> a
    h = hyp("u1", Box(a), ())
    return imp_i(frozenset({"u1"}), box_e(h, ()))


def _builtin_d(a: Formula) -> Derivation:
    # (box a) -> (dia a)
    h = hyp("u1", Box(a), ())
    step = box_e(h, ("x",))
    return imp_i(frozenset({"u1"}), dia_i(("x",), step))


def _builtin_four(a: Formula, partial: bool) -> Derivation:
    # (box a) -> (box (box a))
    h = hyp("u1", Box(a), ())
    e = ehyp("e1", ("x", "y")) if partial else None
    step = box_e(h, ("x", "y"), e)
    inner = box_i("y", frozenset({"e1"}) if partial else frozenset(), step)
    outer = box_i("x", frozenset(), inner)
    return imp_i(frozenset({"u1"}), outer)


def _builtin_dia_dual(a: Formula, partial: bool) -> Derivation:
    # (dia a) <-> (not (box (not a)))
    na = neg(a)

    # direction 1: (dia a) -> (not (box (not a)))
    e1 = ehyp("e1", ("x",)) if partial else None
    u1 = hyp("u1", Box(na), ())
    got_na = box_e(u1, ("x",), e1)
    contra = imp_e(got_na, hyp("u2", a, ("x",)))
    rooted = bot_i(contra, Bottom(), ())
    minor1 = imp_i(frozenset({"u1"}), rooted)
    dir1_body = dia_e(
        hyp("u3", Dia(a), ()),
        "x",
        frozenset({"u2"}),
        frozenset({"e1"}) if partial else frozenset(),
        minor1,
    )
    dir1 = imp_i(frozenset({"u3"}), dir1_body)

    # direction 2: (not (box (not a))) -> (dia a)
    e2 = ehyp("e2", ("y",)) if partial else None
    v1 = hyp("v1", a, ("y",))
    dia = dia_i(("y",), v1, e2)
    contra2 = imp_e(hyp("v2", neg(Dia(a)), ()), dia)
    moved = bot_i(contra2, Bottom(), ("y",))
    not_a = imp_i(frozenset({"v1"}), moved)
    boxed = box_i("y", frozenset({"e2"}) if partial else frozenset(), not_a)
    contra3 = imp_e(hyp("v3", neg(Box(na)), ()), boxed)
    recovered = bot_c(frozenset({"v2"}), contra3, Dia(a), ())
    dir2 = imp_i(frozenset({"v3"}), recovered)

    return and_i(dir1, dir2)


# --- proof files -----------------------------------------------------------


def _valid_label(s: object) -> bool:
    return (
        isinstance(s, str)
        and not isinstance(s, QStr)
        and _SYMBOL_RE.fullmatch(s) is not None
    )


def _loc(locs: dict, form: object, default=(1, 1)) -> tuple[int, int]:
    return locs.get(id(form), default)


def parse_proof(text: str) -> tuple[Derivation, System]:
    """Parse a proof file: ``(proof :system S :flavor F <node>)``."""
    try:
        return _proof_from_forms(_sexpr.parse_all(text), {})
    except ParseError:
        # The lists' locations are only needed to place an error: read the
        # text again with them and fail the same way.
        locs: dict[int, tuple[int, int]] = {}
        return _proof_from_forms(_sexpr.parse_all(text, locs), locs)


def _proof_from_forms(forms: list[object], locs) -> tuple[Derivation, System]:
    if len(forms) != 1:
        raise ParseError("expected exactly one proof form", 1, 1)
    form = forms[0]
    line, col = _loc(locs, form)
    if not (isinstance(form, list) and form and form[0] == "proof"):
        raise ParseError("expected (proof ...)", line, col)
    rest = form[1:]
    kv: dict[str, object] = {}
    while rest and isinstance(rest[0], str) and str(rest[0]).startswith(":"):
        if len(rest) < 2:
            raise ParseError(f"missing value for {rest[0]}", line, col)
        kv[str(rest[0])] = rest[1]
        rest = rest[2:]
    if ":system" not in kv or ":flavor" not in kv:
        raise ParseError("proof header needs :system and :flavor", line, col)
    logic = kv[":system"]
    flavor = kv[":flavor"]
    if logic not in LOGICS:
        raise ParseError(f"unknown logic {logic!r}", line, col)
    if flavor not in FLAVORS:
        raise ParseError(f"unknown flavor {flavor!r}", line, col)
    if len(rest) != 1:
        raise ParseError("proof form needs exactly one root node", line, col)
    node = _parse_node(rest[0], locs)
    return node, System(str(logic), str(flavor))


def _parse_pos(form: object, locs, ctx: object) -> Position:
    line, col = _loc(locs, form if isinstance(form, list) else ctx)
    if not isinstance(form, list):
        raise ParseError("expected a position (tok ...)", line, col)
    return _position_from_sexpr(form)


def _parse_labels(form: object, locs, ctx: object) -> frozenset[str]:
    line, col = _loc(locs, form if isinstance(form, list) else ctx)
    if not isinstance(form, list):
        raise ParseError("expected a label list (...)", line, col)
    labels = []
    for item in form:
        if not _valid_label(item):
            raise ParseError(f"invalid label {item!r}", line, col)
        labels.append(str(item))
    if len(set(labels)) != len(labels):
        raise ParseError("duplicate label in label list", line, col)
    return frozenset(labels)


def _parse_formula_form(form: object, locs, ctx: object) -> Formula:
    line, col = _loc(locs, form if isinstance(form, list) else ctx)
    try:
        if isinstance(form, QStr):
            # A bare quoted atom is read as formula text: "(and p q)" is a
            # conjunction, "a b" two expressions.
            return parse_formula(form)
        return _formula_from_sexpr(form)
    except ParseError as exc:
        raise ParseError(exc.message, line, col) from None


def _parse_node(form: object, locs) -> Derivation:
    line, col = _loc(locs, form)
    if not (isinstance(form, list) and form and isinstance(form[0], str)):
        raise ParseError("expected a rule application (rule ...)", line, col)
    head = str(form[0])
    args = form[1:]

    def need(n: int, what: str) -> None:
        if len(args) != n:
            raise ParseError(
                f"{head} expects {what} ({n} argument{'s' if n != 1 else ''}, "
                f"got {len(args)})",
                line,
                col,
            )

    if head == "hyp":
        need(3, "label, formula, position")
        if not _valid_label(args[0]):
            raise ParseError(f"invalid label {args[0]!r}", line, col)
        f = _parse_formula_form(args[1], locs, form)
        p = _parse_pos(args[2], locs, form)
        return hyp(str(args[0]), f, p)
    if head == "ehyp":
        need(2, "label, position")
        if not _valid_label(args[0]):
            raise ParseError(f"invalid label {args[0]!r}", line, col)
        p = _parse_pos(args[1], locs, form)
        return ehyp(str(args[0]), p)
    if head == "and-i":
        need(2, "two premises")
        return and_i(_parse_node(args[0], locs), _parse_node(args[1], locs))
    if head in ("and-e1", "and-e2"):
        need(1, "one premise")
        ctor = and_e1 if head == "and-e1" else and_e2
        return ctor(_parse_node(args[0], locs))
    if head in ("or-i1", "or-i2"):
        need(2, "other disjunct, premise")
        other = _parse_formula_form(args[0], locs, form)
        ctor = or_i1 if head == "or-i1" else or_i2
        return ctor(other, _parse_node(args[1], locs))
    if head == "or-e":
        need(5, "major, labels, minor, labels, minor")
        return or_e(
            _parse_node(args[0], locs),
            _parse_labels(args[1], locs, form),
            _parse_node(args[2], locs),
            _parse_labels(args[3], locs, form),
            _parse_node(args[4], locs),
        )
    if head == "imp-i":
        if len(args) not in (2, 4):
            raise ParseError(
                "imp-i expects labels and premise, optionally followed by an "
                "explicit antecedent formula and position",
                line,
                col,
            )
        labels = _parse_labels(args[0], locs, form)
        prem = _parse_node(args[1], locs)
        if len(args) == 4:
            f = _parse_formula_form(args[2], locs, form)
            p = _parse_pos(args[3], locs, form)
            return imp_i(labels, prem, ante=PFormula(f, p))
        bound = bound_leaf_contents(prem, labels, "p")
        if not bound:
            raise ParseError(
                "imp-i discharges no open assumption; give the antecedent "
                "formula and position explicitly",
                line,
                col,
            )
        return imp_i(labels, prem, ante=bound[0])
    if head == "imp-e":
        need(2, "major, minor")
        return imp_e(_parse_node(args[0], locs), _parse_node(args[1], locs))
    if head == "bot-c":
        need(4, "labels, premise, formula, position")
        return bot_c(
            _parse_labels(args[0], locs, form),
            _parse_node(args[1], locs),
            _parse_formula_form(args[2], locs, form),
            _parse_pos(args[3], locs, form),
        )
    if head == "bot-i":
        need(3, "premise, formula, position")
        return bot_i(
            _parse_node(args[0], locs),
            _parse_formula_form(args[1], locs, form),
            _parse_pos(args[2], locs, form),
        )
    if head == "box-i":
        need(3, "token, e-labels, premise")
        if not valid_user_token(str(args[0]) if not isinstance(args[0], list) else ""):
            raise ParseError(f"invalid token {args[0]!r}", line, col)
        return box_i(
            str(args[0]),
            _parse_labels(args[1], locs, form),
            _parse_node(args[2], locs),
        )
    if head == "box-e":
        if len(args) not in (2, 3):
            raise ParseError(
                "box-e expects major and step suffix, optionally an "
                "existence premise",
                line,
                col,
            )
        major = _parse_node(args[0], locs)
        beta = _parse_pos(args[1], locs, form)
        eprem = _parse_node(args[2], locs) if len(args) == 3 else None
        return box_e(major, beta, eprem)
    if head == "dia-i":
        if len(args) not in (2, 3):
            raise ParseError(
                "dia-i expects step suffix and premise, optionally an "
                "existence premise",
                line,
                col,
            )
        beta = _parse_pos(args[0], locs, form)
        prem = _parse_node(args[1], locs)
        eprem = _parse_node(args[2], locs) if len(args) == 3 else None
        return dia_i(beta, prem, eprem)
    if head == "dia-e":
        need(5, "major, token, labels, e-labels, minor")
        if not valid_user_token(str(args[1]) if not isinstance(args[1], list) else ""):
            raise ParseError(f"invalid token {args[1]!r}", line, col)
        return dia_e(
            _parse_node(args[0], locs),
            str(args[1]),
            _parse_labels(args[2], locs, form),
            _parse_labels(args[3], locs, form),
            _parse_node(args[4], locs),
        )
    raise ParseError(f"unknown rule {head!r}", line, col)


def sanitize_tokens(d: Derivation) -> Derivation:
    """Rename reserved (machine-generated) tokens to printable fresh ones.

    Tokens starting with the reserved prefix are renamed elementwise by a
    bijection onto unused ordinary tokens, so a printed proof always
    re-parses to a check-equivalent tree.
    """
    reserved: set[str] = set()
    ordinary: set[str] = set()
    for n in d:
        poss = [n.conclusion.position]
        if n.content is not None:
            poss.append(n.content.position)
        if n.ante is not None:
            poss.append(n.ante.position)
        if n.target is not None:
            poss.append(n.target.position)
        for pos in poss:
            for tok in pos:
                if tok.startswith(RESERVED_TOKEN_PREFIX):
                    reserved.add(tok)
                else:
                    ordinary.add(tok)
    if not reserved:
        return d
    mapping: dict[str, str] = {}
    counter = itertools.count(1)
    for tok in sorted(reserved):
        while True:
            cand = f"z{next(counter)}"
            if cand not in ordinary:
                ordinary.add(cand)
                mapping[tok] = cand
                break
    return map_positions(
        d, lambda p: tuple(mapping.get(t, t) for t in p)
    )


def _pos_form(p: Position) -> list:
    return list(p)


def _formula_form(f: Formula) -> object:
    """``f`` as the s-expression value that ``print_formula(f)`` reads back
    as.  An atom name that does not read back as itself (empty, all digits,
    or with a space, parenthesis, quote or ``;``) takes the text round trip,
    which raises where the printed formula does not parse."""
    if _atoms_read_back(f):
        return _formula_to_sexpr(f)
    return _sexpr.parse_one(print_formula(f))


def _atoms_read_back(f: Formula) -> bool:
    if isinstance(f, Atom):
        return _SYMBOL_RE.fullmatch(f.name) is not None and not f.name.isdigit()
    if isinstance(f, (And, Or, Imp)):
        return _atoms_read_back(f.left) and _atoms_read_back(f.right)
    if isinstance(f, (Box, Dia)):
        return _atoms_read_back(f.body)
    return True


def _node_form(n: Derivation) -> list:
    r = n.rule
    if r == "hyp":
        return [
            "hyp",
            n.label,
            _formula_form(n.content.formula),
            _pos_form(n.content.position),
        ]
    if r == "ehyp":
        return ["ehyp", n.label, _pos_form(n.content.position)]
    if r == "and-i":
        return ["and-i", _node_form(n.premises[0]), _node_form(n.premises[1])]
    if r in ("and-e1", "and-e2"):
        return [r, _node_form(n.premises[0])]
    if r in ("or-i1", "or-i2"):
        return [r, _formula_form(n.other), _node_form(n.premises[0])]
    if r == "or-e":
        return [
            "or-e",
            _node_form(n.premises[0]),
            sorted(n.discharges[0]),
            _node_form(n.premises[1]),
            sorted(n.discharges[1]),
            _node_form(n.premises[2]),
        ]
    if r == "imp-i":
        base = ["imp-i", sorted(n.discharges[0]), _node_form(n.premises[0])]
        bound = bound_leaf_contents(n.premises[0], n.discharges[0], "p")
        if not bound:
            base.append(_formula_form(n.ante.formula))
            base.append(_pos_form(n.ante.position))
        return base
    if r == "imp-e":
        return ["imp-e", _node_form(n.premises[0]), _node_form(n.premises[1])]
    if r == "bot-c":
        return [
            "bot-c",
            sorted(n.discharges[0]),
            _node_form(n.premises[0]),
            _formula_form(n.target.formula),
            _pos_form(n.target.position),
        ]
    if r == "bot-i":
        return [
            "bot-i",
            _node_form(n.premises[0]),
            _formula_form(n.target.formula),
            _pos_form(n.target.position),
        ]
    if r == "box-i":
        return [
            "box-i",
            n.token,
            sorted(n.e_discharges),
            _node_form(n.premises[0]),
        ]
    if r == "box-e":
        out = ["box-e", _node_form(n.premises[0]), _pos_form(n.beta or ())]
        if len(n.premises) > 1:
            out.append(_node_form(n.premises[1]))
        return out
    if r == "dia-i":
        out = ["dia-i", _pos_form(n.beta or ()), _node_form(n.premises[0])]
        if len(n.premises) > 1:
            out.append(_node_form(n.premises[1]))
        return out
    if r == "dia-e":
        return [
            "dia-e",
            _node_form(n.premises[0]),
            n.token,
            sorted(n.discharges[0]),
            sorted(n.e_discharges),
            _node_form(n.premises[1]),
        ]
    raise ValueError(f"unknown rule {r!r}")


def print_proof(d: Derivation, system: System) -> str:
    """Serialize a derivation; reserved tokens are renamed first so the
    output always re-parses."""
    clean = sanitize_tokens(d)
    form = [
        "proof",
        ":system",
        system.logic,
        ":flavor",
        system.flavor,
        _node_form(clean),
    ]
    return _pretty(form) + "\n"


_NODE_HEADS = set(RULES)


def _pretty(form: object, indent: int = 0) -> str:
    pad = "  " * indent
    if not isinstance(form, list):
        return pad + _sexpr.dump(form)

    def is_node(x: object) -> bool:
        return isinstance(x, list) and bool(x) and x[0] in _NODE_HEADS

    if not any(is_node(x) for x in form[1:]):
        return pad + _sexpr.dump(form)
    lines: list[str] = []
    current = pad + "(" + _sexpr.dump(form[0])
    for item in form[1:]:
        if is_node(item):
            lines.append(current)
            current = _pretty(item, indent + 1)
        else:
            current += " " + _sexpr.dump(item)
    lines.append(current + ")")
    return "\n".join(lines)


def print_check_report(report: CheckReport) -> str:
    """Serialize a check report as a single s-expression."""
    viol_forms = []
    for v in report.violations:
        viol_forms.append(
            [
                "violation",
                ":path",
                list(v.path),
                ":rule",
                v.rule,
                ":condition",
                QStr(v.message),
            ]
        )
    open_forms = []
    for a in report.open_assumptions:
        if isinstance(a.content, EFormula):
            open_forms.append(
                ["open", ":label", a.label, ":exists", _pos_form(a.content.position)]
            )
        else:
            open_forms.append(
                [
                    "open",
                    ":label",
                    a.label,
                    ":formula",
                    _formula_form(a.content.formula),
                    ":position",
                    _pos_form(a.content.position),
                ]
            )
    form = [
        "check-report",
        ":ok",
        report.ok,
        ":violations",
        viol_forms,
        ":open",
        open_forms,
    ]
    return _sexpr.dump(form) + "\n"
