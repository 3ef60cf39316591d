"""Proof kernel: derivation trees, checking, and position-aware transforms.

A derivation is an immutable tree of rule applications.  Each node stores its
rule name, premise subtrees, and the data the rule needs (discharge label
sets, a recorded step suffix, a witness token, ...).  Conclusions are computed
bottom-up on a best-effort basis, so ill-shaped trees are representable; the
checker reports every violation instead of refusing to build the tree.

What each rule is, is written once, in ``_RULE_TABLE`` (see ``_Rule``): its
file arguments, premise counts, conclusion, shape conditions, discharges,
witness and step.  Node building and validation, the checker, the proof-file
reader and writer, the scope walks, ``freshen`` and the normalizer read it;
only what a rule *does* (contractions, translations) is written per rule.

The checker validates, in one post-order pass over the tree:

* rule shapes (premise formulas and positions fit the rule),
* the recorded step suffix of ``box-e``/``dia-i``: one step of
  ``System.step``, which is the logic's ``_STEP_KIND`` (the semantics'
  accessibility too), or one token in strict ``t``,
* the existence-premise discipline (required for the partial systems ``k``
  and ``k4``, forbidden for the total ones),
* freshness of witness positions for ``box-i``/``dia-e``,
* flavor restrictions (``bot-c`` is classical-only),
* assumption bookkeeping: open assumptions form a multiset, a label in
  scope always carries one content, and discharge removes every open leaf
  bound by the discharging rule.

The pass is ``_check_walk``; ``check`` sorts what it finds into a report,
and the normalizer runs the pass alone on the subtree a contraction
rewrote.  It walks the tree on an explicit stack, so a derivation's depth
is not bounded by the interpreter's recursion limit.  Each node's open
assumptions are a map from label to a multiset of contents.  A discharge
pops just the labels it binds; the premises' maps are merged into the
largest one, and only the labels of the smaller maps are tested for a
second content, since no other label can gain one.  Witness freshness is a
prefix test over the open positions left after the discharge.  The cost is
linear in the number of nodes plus the smaller-into-larger merging (an open
assumption moves O(log n) times), plus one scan of the open positions per
``box-i``/``dia-e``.

Walks that keep tuned stacks of their own: the checker, the reader, the
writer, ``map_positions`` and ``freshen`` (whose ``_remap`` composes the
renamings of nested witness scopes at each node), and ``_preorder``, the one
pre-order index (each node's parent, premise slot, subtree end and post-order
number), which ``check_position_condition`` and the normalizer's cut scan and
selection read.  Scans that only visit nodes iterate a tree in pre-order.
Every other walk over a derivation, here and in the normalizer and the
translations, folds it with ``_walk``: one explicit stack, a pre-order hook
that gives each premise its environment and a post-order hook that builds
the node's image.  No derivation walk is bounded by the recursion limit.
"""

from __future__ import annotations

import itertools
import operator
import re
from collections.abc import Callable, Iterator
from dataclasses import FrozenInstanceError, dataclass

from . import _sexpr
from ._sexpr import Fault, ParseError, brief
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
    _VERBATIM_RE,
    _WORD_RE,
    _read_formula,
    _read_position,
    _word,
    _write_formula,
    concat,
    neg,
    parse_formula,
    prefix_replace,
    print_formula,
    print_position,
    step_holds,
)

LOGICS = ("k", "d", "t", "k4", "d4", "s4")
FLAVORS = ("classical", "intuitionistic")
PARTIAL_LOGICS = frozenset({"k", "k4"})

#: Each logic's one-step relation, as a :func:`syntax.step_holds` kind: a
#: recorded ``box-e``/``dia-i`` step is one step of it, and a model's
#: accessibility reads it off the child order.
_STEP_KIND = {
    "k": "succ",
    "d": "succ",
    "t": "succ-refl",
    "k4": "trans",
    "d4": "trans",
    "s4": "refl-trans",
}

# --- the rule table --------------------------------------------------------


@dataclass(frozen=True, slots=True)
class _Rule:
    """Everything one rule is.  Its functions take the node and ``c``, the
    p-formula its first premise concludes (see :func:`_pf`; ``None`` at a
    leaf)."""

    #: The proof-file arguments in order, each ``(kind, what it fills)``: a
    #: ``premise`` its slot; a ``label`` or ``token`` the field of that name;
    #: a ``labels`` list its scope; a ``formula`` or ``position`` the named
    #: field (a formula then a position make a p-formula, a lone position in
    #: ``content`` an existence formula).
    args: tuple[tuple[str, object], ...]
    #: How an error about the number of arguments names them.
    arity: str
    #: How many trailing arguments may be left out.
    optional: int
    #: The connective an introduction or elimination rule is about.
    intro: str | None
    elim: str | None
    #: The minor premise slots of a case split.
    minors: tuple[int, ...]
    #: Discharge scopes in file order: (premise slot, ``p``/``e``, index of
    #: its ``discharges`` entry); an ``e`` scope fills ``e_discharges``.
    scopes: tuple[tuple[int, str, int | None], ...]
    #: Argument indices of witness tokens.
    tokens: tuple[int, ...]
    #: The node fields the arguments fill; the others keep their defaults.
    fields: frozenset[str]
    #: The numbers of premises the rule takes, and the slot of the optional
    #: existence premise of a step rule.
    counts: tuple[int, ...]
    e_slot: int | None
    #: ``conclude(n, c)``: the conclusion, computed on a best-effort basis.
    conclude: Callable
    #: The shape conditions as ``(violated(n, c), message)``, the connective
    #: the major premise must conclude first.
    checks: tuple[tuple[Callable, str], ...]
    #: Each discharge scope with ``expect(n, c)``, the content it removes:
    #: ``(premise slot, kind, index, expect)``.
    discharge: tuple[tuple[int, str, int | None, Callable], ...]
    #: A witness rule's scope premise slot.  Over its premise (0, ``box-i``)
    #: the witness is where that premise concludes, its own position
    #: extended by the token; over a minor (``dia-e``) it extends the major
    #: premise's position by the token.
    witness: int | None
    #: Where a step rule's recorded step starts: at its ``premise``
    #: (``box-e``, which concludes at the other end) or its ``conclusion``
    #: (``dia-i``).  An existence premise assumes the other end.
    step_from: str | None
    #: ``(holds(system), message)`` for a rule that some systems lack.
    system: tuple[Callable, str] | None


def _rule(
    signature: str, arity: str, conclude: Callable, *checks, intro=None, elim=None,
    minors=(), discharge=(), witness=None, step_from=None, system=None,
) -> _Rule:
    """A table entry from a signature: file arguments ``kind[:field]``,
    optional ones in brackets; a label list's field is its scope kind and
    premise slot, as in ``labels:p1``.  An optional premise is an existence
    premise."""
    required, _, optional = signature.partition("[")
    args: list[tuple[str, object]] = []
    scopes: list[tuple[int, str, int | None]] = []
    for word in (required + optional.rstrip("]")).split():
        kind, _, fld = word.partition(":")
        if kind == "premise":
            args.append((kind, sum(k == "premise" for k, _f in args)))
        elif kind == "labels":
            j = sum(s[1] == "p" for s in scopes) if fld[0] == "p" else None
            scopes.append((int(fld[1:]), fld[0], j))
            args.append((kind, scopes[-1]))
        else:
            args.append((kind, fld or kind))
    k = sum(kind == "premise" for kind, _f in args)
    e_slot = k - 1 if "premise" in optional else None
    tokens = tuple(i for i, (kind, _f) in enumerate(args) if kind == "token")
    fields = frozenset(
        ("discharges" if f[1] == "p" else "e_discharges") if kind == "labels" else f
        for kind, f in args
        if kind != "premise"
    )
    return _Rule(
        tuple(args), arity, len(optional.split()), intro, elim, minors,
        tuple(scopes), tokens, fields, (k,) if e_slot is None else (k - 1, k),
        e_slot, conclude, checks,
        tuple(scope + (f,) for scope, f in zip(scopes, discharge)),
        witness, step_from, system,
    )


def _prem(n, i: int) -> PFormula:
    """The p-formula premise ``i`` of ``n`` concludes (see :func:`_pf`)."""
    return _pf(n.premises[i])


def _major(cls: type, message: str) -> tuple[Callable, str]:
    """The condition that the major premise concludes a ``cls`` formula."""
    return (lambda n, c: not isinstance(c.formula, cls)), message


def _part(c: PFormula, cls: type, side: str) -> PFormula:
    """The ``side`` of ``c``'s formula at its position if it is a ``cls``."""
    if isinstance(c.formula, cls):
        return PFormula(getattr(c.formula, side), c.position)
    return c


def _ends_with(pos: Position, beta: Position) -> bool:
    return pos[len(pos) - len(beta) :] == tuple(beta)


def _step_start(pos: Position, beta: Position) -> Position:
    """``pos`` less its suffix ``beta``; ``pos`` itself if it does not end
    with ``beta``."""
    return pos[: len(pos) - len(beta)] if _ends_with(pos, beta) else pos


_LABELLED = (lambda n, c: not n.label, "assumption leaves need a non-empty label")
_CONJUNCTION = _major(And, "premise must conclude a conjunction")
_ABSURD = _major(Bottom, "premise must conclude absurdity")
_TARGETED = (lambda n, c: n.target is None, "missing conclusion data")
_STEPPED = (lambda n, c: n.beta is None, "missing recorded step suffix")
_OTHER = (lambda n, c: n.other is None, "missing the other disjunct")
_SAME_POSITION = "both premises must sit at the same position"

_RULE_TABLE: dict[str, _Rule] = {
    "hyp": _rule(
        "label formula:content position:content", "label, formula, position",
        lambda n, c: n.content, _LABELLED,
    ),
    "ehyp": _rule(
        "label position:content", "label, position", lambda n, c: n.content,
        _LABELLED,
        system=(lambda s: s.partial, "existence assumptions require a partial system"),
    ),
    "and-i": _rule(
        "premise premise", "two premises",
        lambda n, c: PFormula(And(c.formula, _prem(n, 1).formula), c.position),
        (lambda n, c: _prem(n, 1).position != c.position, _SAME_POSITION),
        intro="and",
    ),
    "and-e1": _rule(
        "premise", "one premise", lambda n, c: _part(c, And, "left"),
        _CONJUNCTION, elim="and",
    ),
    "and-e2": _rule(
        "premise", "one premise", lambda n, c: _part(c, And, "right"),
        _CONJUNCTION, elim="and",
    ),
    "or-i1": _rule(
        "formula:other premise", "other disjunct, premise",
        lambda n, c: PFormula(Or(c.formula, n.other), c.position), _OTHER,
        intro="or",
    ),
    "or-i2": _rule(
        "formula:other premise", "other disjunct, premise",
        lambda n, c: PFormula(Or(n.other, c.formula), c.position), _OTHER,
        intro="or",
    ),
    "or-e": _rule(
        "premise labels:p1 premise labels:p2 premise",
        "major, labels, minor, labels, minor", lambda n, c: _prem(n, 1),
        _major(Or, "major premise must conclude a disjunction"),
        (
            lambda n, c: _prem(n, 1) != _prem(n, 2),
            "both case premises must conclude the same p-formula",
        ),
        elim="or", minors=(1, 2),
        discharge=(
            lambda n, c: PFormula(c.formula.left, c.position),
            lambda n, c: PFormula(c.formula.right, c.position),
        ),
    ),
    # An omitted antecedent is read off the bound leaves.
    "imp-i": _rule(
        "labels:p0 premise [formula:ante position:ante]",
        "labels and premise, optionally followed by an explicit antecedent "
        "formula and position",
        lambda n, c: PFormula(
            Imp(Bottom() if n.ante is None else n.ante.formula, c.formula),
            c.position,
        ),
        (lambda n, c: n.ante is None, "missing antecedent"),
        (
            lambda n, c: n.ante is not None and n.ante.position != c.position,
            "the discharged antecedent must sit at the premise position",
        ),
        intro="imp", discharge=(lambda n, c: n.ante,),
    ),
    "imp-e": _rule(
        "premise premise", "major, minor", lambda n, c: _part(c, Imp, "right"),
        _major(Imp, "major premise must conclude an implication"),
        (
            lambda n, c: isinstance(c.formula, Imp)
            and _prem(n, 1).formula != c.formula.left,
            "minor premise must conclude the antecedent",
        ),
        (
            lambda n, c: isinstance(c.formula, Imp)
            and _prem(n, 1).position != c.position,
            _SAME_POSITION,
        ),
        elim="imp",
    ),
    "bot-c": _rule(
        "labels:p0 premise formula:target position:target",
        "labels, premise, formula, position",
        lambda n, c: n.target, _ABSURD, _TARGETED,
        discharge=(lambda n, c: PFormula(neg(n.target.formula), n.target.position),),
        system=(
            lambda s: s.flavor == "classical",
            "bot-c is available only in the classical flavor",
        ),
    ),
    "bot-i": _rule(
        "premise formula:target position:target", "premise, formula, position",
        lambda n, c: n.target, _ABSURD, _TARGETED,
        (
            lambda n, c: n.target is not None
            and not isinstance(n.target.formula, (Atom, Bottom)),
            "conclusion must be atomic",
        ),
        (
            lambda n, c: n.target is not None
            and isinstance(n.target.formula, Bottom)
            and n.target.position == c.position,
            "repositioning absurdity requires a different position",
        ),
    ),
    "box-i": _rule(
        "token labels:e0 premise", "token, e-labels, premise",
        lambda n, c: PFormula(Box(c.formula), c.position[:-1]),
        (lambda n, c: not c.position, "premise position must be non-empty"),
        (
            lambda n, c: c.position and c.position[-1] != n.token,
            "witness token must be the last token of the premise position",
        ),
        intro="box", discharge=(lambda n, c: EFormula(c.position),), witness=0,
    ),
    "box-e": _rule(
        "premise position:beta [premise]",
        "major and step suffix, optionally an existence premise",
        lambda n, c: PFormula(
            c.formula.body if isinstance(c.formula, Box) else c.formula,
            concat(c.position, n.beta or ()),
        ),
        _major(Box, "major premise must conclude a necessity formula"), _STEPPED,
        elim="box", step_from="premise",
    ),
    "dia-i": _rule(
        "position:beta premise [premise]",
        "step suffix and premise, optionally an existence premise",
        lambda n, c: PFormula(Dia(c.formula), _step_start(c.position, n.beta or ())),
        _STEPPED,
        (
            lambda n, c: n.beta is not None and not _ends_with(c.position, n.beta),
            "premise position must end with the recorded step suffix",
        ),
        intro="dia", step_from="conclusion",
    ),
    "dia-e": _rule(
        "premise token labels:p1 labels:e1 premise",
        "major, token, labels, e-labels, minor", lambda n, c: _prem(n, 1),
        _major(Dia, "major premise must conclude a possibility formula"),
        (lambda n, c: n.token is None, "missing witness token"),
        elim="dia", minors=(1,), witness=1,
        discharge=(
            lambda n, c: PFormula(c.formula.body, c.position + (n.token,)),
            lambda n, c: EFormula(c.position + (n.token,)),
        ),
    ),
}

RULES = tuple(_RULE_TABLE)
INTRO_RULES = frozenset(r for r, s in _RULE_TABLE.items() if s.intro)
ELIM_RULES = frozenset(r for r, s in _RULE_TABLE.items() if s.elim)
JOIN_RULES = frozenset(r for r, s in _RULE_TABLE.items() if s.minors)

#: A label a proof file carries: a symbol that is not all ASCII digits,
#: since the reader takes a label's token as it stands.
_LABEL_RE = re.compile(rf"(?![0-9]+\Z){_sexpr.SYMBOL}")


@dataclass(frozen=True)
class System:
    """A logic (accessibility discipline) paired with a proof flavor; in
    strict ``t`` (``t_strict_empty_beta``) a step records one token."""

    logic: str
    flavor: str = "classical"
    t_strict_empty_beta: bool = False

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

    @property
    def step(self) -> str:
        """The step kind a recorded step must take (see ``_STEP_KIND``)."""
        if self.t_strict_empty_beta and self.logic == "t":
            return "succ"
        return _STEP_KIND[self.logic]


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


@dataclass(frozen=True, eq=False, slots=True)
class Derivation:
    """One rule application; premises are complete subderivations.

    ``conclusion`` is computed from the rule, the premises and the node data
    on a best-effort basis, and the checker trusts it.  Fields beyond
    ``rule``/``premises``/``conclusion`` are used only by the rules that
    need them.  So the public keyword constructor (and
    ``dataclasses.replace``) raises ``ValueError`` for an unknown rule, a
    premise count the rule does not take, a field the rule uses left
    ``None`` or one it does not use off its default, a discharge label set
    too many or too few, or a ``conclusion`` other than the computed one,
    which must be an existence formula for ``ehyp`` and a p-formula
    elsewhere.  :func:`_node`, unpickling and ``copy`` validate nothing.
    Two derivations are equal when their trees hold equal node data in the
    same shape; equality and hashing take trees of any depth.
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

    def __post_init__(self) -> None:
        fault = _malformed(self)
        if fault:
            raise ValueError(f"ill-formed {self.rule!r} node: {fault}")

    def __iter__(self):
        """Every node of the tree, in pre-order."""
        stack = [self]
        while stack:
            n = stack.pop()
            yield n
            stack.extend(reversed(n.premises))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Derivation):
            return NotImplemented
        return all(
            a is b
            or (len(a.premises) == len(b.premises) and _node_data(a) == _node_data(b))
            for a, b in zip(self, other)
        )

    def __hash__(self) -> int:
        return _walk(self, _premises, lambda n, hs, _: hash((_node_data(n), *hs)))


# ``slots=True`` makes a new class, and the frozen ``__setattr__`` and
# ``__delattr__`` it generates test ``type(self)`` against the class before
# it, so on Python 3.11 they raise ``TypeError`` for a name that is not a
# field.  These raise ``FrozenInstanceError`` for every name, as a frozen
# dataclass without slots does.
def _refuse_assignment(self, name, value):
    raise FrozenInstanceError(f"cannot assign to field {name!r}")


def _refuse_deletion(self, name):
    raise FrozenInstanceError(f"cannot delete field {name!r}")


Derivation.__setattr__ = _refuse_assignment  # type: ignore[method-assign]
Derivation.__delattr__ = _refuse_deletion  # type: ignore[method-assign]

#: The node fields beyond ``rule``, ``premises`` and ``conclusion``, in
#: declaration order, each one's index in that order and their defaults.
_FIELDS = (
    "label", "content", "ante", "other", "target", "discharges", "e_discharges",
    "beta", "token",
)
_SLOT = {f: i for i, f in enumerate(_FIELDS)}
_DEFAULTS = tuple(Derivation.__dataclass_fields__[f].default for f in _FIELDS)
_node_data = operator.attrgetter("rule", "conclusion", *_FIELDS)


class _node:
    """``_node(rule, premises, conclusion, *fields)``, the fields in
    ``_FIELDS`` order, is a new :class:`Derivation` holding exactly these
    values, as the keyword constructor would make it; a ``conclusion`` of
    ``None`` is computed by the rule's entry in ``_RULE_TABLE``.

    The frozen dataclass ``__init__`` sets each field through
    ``object.__setattr__``; this class has the same slots and no frozen
    ``__setattr__``, so its ``__init__`` stores them directly and then
    hands the filled object over to ``Derivation``, which the identical
    layout permits.  No object of this class outlives its ``__init__``.
    """

    __slots__ = Derivation.__slots__

    def __init__(
        self, rule, premises, conclusion, label, content, ante, other, target,
        discharges, e_discharges, beta, token,
    ) -> None:
        self.rule = rule
        self.premises = premises
        self.label = label
        self.content = content
        self.ante = ante
        self.other = other
        self.target = target
        self.discharges = discharges
        self.e_discharges = e_discharges
        self.beta = beta
        self.token = token
        if conclusion is None:
            c = _pf(premises[0]) if premises else None
            conclusion = _RULE_TABLE[rule].conclude(self, c)
        self.conclusion = conclusion
        self.__class__ = Derivation


def _walk(root, enter, leave, env=None):
    """Fold the tree under ``root`` bottom-up on an explicit stack, any depth.

    ``enter(node, env)`` returns ``(children, state)``: the ``(child, env)``
    pairs to walk, in that order (none skips the subtree), and what ``leave``
    needs.  ``leave(node, images, state)`` gets the children's images in the
    same order and returns the node's.  A child is entered after the one
    before it is left, so the hooks can keep scoped state.
    """
    images: list = []
    stack: list = [(root, env)]  # pairs to enter, triples to leave
    pop, push, done = stack.pop, stack.append, images.append
    while stack:
        frame = pop()
        if len(frame) == 2:
            children, state = enter(*frame)
            if children:
                push((frame[0], state, len(children)))
                stack.extend(reversed(children))
            else:
                done(leave(frame[0], (), state))
        else:
            node, state, k = frame
            got = images[-k:]
            del images[-k:]
            done(leave(node, got, state))
    return images[0]


def _premises(n, env):
    """The ``enter`` of a walk over every premise that passes ``env`` on."""
    return [(p, env) for p in n.premises], env


def _preorder(d: Derivation):
    """``(nodes, parent, slot, end, post)``: lists over the pre-order numbers
    of the nodes of ``d`` giving each node, its parent's number (``-1`` at the
    root), the premise slot it fills, the end of its subtree, which is
    ``[i, end[i])`` (so the premises of ``i`` start at ``i + 1`` and each next
    one at the end of the one before), and its post-order number."""
    nodes, parent, slot, depth = [], [], [], []
    stack = [(d, -1, 0)]
    while stack:
        n, up, k = stack.pop()
        stack += [(p, len(nodes), j) for j, p in enumerate(n.premises)][::-1]
        nodes.append(n)
        parent.append(up)
        slot.append(k)
        depth.append(depth[up] + 1 if up >= 0 else 0)
    end = list(range(1, len(nodes) + 1))
    for i in range(len(nodes) - 1, 0, -1):
        if end[i] > end[parent[i]]:
            end[parent[i]] = end[i]
    # Post-order puts a node after its subtree and after every earlier node
    # that is not one of its ancestors.
    post = [e - 1 - k for e, k in zip(end, depth)]
    return nodes, parent, slot, end, post


def _path_of(i: int, parent: list[int], slot: list[int]) -> tuple[int, ...]:
    """The premise-index path of pre-order node ``i`` (see :func:`_preorder`)."""
    out = []
    while i > 0:
        out.append(slot[i])
        i = parent[i]
    return tuple(reversed(out))


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
    """Build a node, computing its best-effort conclusion; the fields after
    ``premises`` follow ``_FIELDS``, so they can be passed by position."""
    if rule not in _RULE_TABLE:
        raise ValueError(f"unknown rule {rule!r}")
    return _node(
        rule, premises, None, label, content, ante, other, target, discharges,
        e_discharges, beta, token,
    )


def _arity_fault(spec: _Rule | None, k: int) -> str:
    """What is wrong with a node of a rule ``spec`` over ``k`` premises."""
    if spec is None:
        return "unknown rule"
    counts = spec.counts
    s = "" if counts == (1,) else "s"
    return f"expects {' or '.join(map(str, counts))} premise{s}, got {k}"


def _malformed(n: Derivation) -> str | None:
    """Why the keyword constructor refuses ``n``, or ``None``."""
    spec = _RULE_TABLE.get(n.rule)
    k = len(n.premises)
    if spec is None or k not in spec.counts:
        return _arity_fault(spec, k)
    for f, default in zip(_FIELDS, _DEFAULTS):
        value = getattr(n, f)
        if f not in spec.fields and value != default:
            return f"{f} is not a field of the rule"
        if f in spec.fields and value is None:
            return f"missing {f}"
    sets = sum(kind == "p" for _s, kind, _j in spec.scopes)
    if len(n.discharges) != sets:
        s = "" if sets == 1 else "s"
        return f"expects {sets} discharge label set{s}, got {len(n.discharges)}"
    labels = [*([n.label] if n.label is not None else ()), *n.e_discharges]
    fault = _unwritable("label", labels + [x for s in n.discharges for x in s])
    if fault or n.token is not None and (fault := _unwritable("token", [n.token])):
        return fault
    want = spec.conclude(n, _pf(n.premises[0]) if k else None)
    kind = EFormula if n.rule == "ehyp" else PFormula
    if not isinstance(want, kind):
        return "it concludes " + (
            "an existence formula" if kind is EFormula else "a p-formula"
        )
    if want != n.conclusion:
        return f"the stored conclusion is not the computed {_content_str(want)}"
    return None


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
        ante = _first_bound(premise, frozenset(labels))
        if ante is None:
            raise ValueError(
                "imp_i with a vacuous discharge needs an explicit antecedent"
            )
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
    spec = _RULE_TABLE.get(d.rule)
    for slot, kind, j in spec.scopes if spec else ():
        out.append((slot, d.discharges[j] if kind == "p" else d.e_discharges, kind))
    return out


def _free_labels(kind: str):
    """The ``enter`` of a walk that carries the labels of ``kind`` still free
    from the root: each premise gets them less those its node rebinds over
    it, and a subtree where none is left is skipped."""

    def enter(n: Derivation, free: frozenset[str]):
        if not free or not n.premises:
            return (), free
        prems = [(p, free) for p in n.premises]
        for slot, k, j in _RULE_TABLE[n.rule].scopes:
            if k == kind:
                labels = n.discharges[j] if k == "p" else n.e_discharges
                prems[slot] = (n.premises[slot], prems[slot][1] - labels)
        return prems, free

    return enter


_FREE_LABELS = {kind: _free_labels(kind) for kind in ("p", "e")}


def _bound_leaves(
    d: Derivation, labels: frozenset[str], kind: str
) -> Iterator[PFormula | EFormula]:
    """Contents of the open leaves a discharge over ``d`` would bind, in
    pre-order, found one at a time on an explicit stack."""
    leaf = "hyp" if kind == "p" else "ehyp"
    enter = _FREE_LABELS[kind]
    stack = [(d, frozenset(labels))]
    while stack:
        n, free = stack.pop()
        if n.rule == leaf and n.label in free:
            yield n.conclusion
        stack += reversed(enter(n, free)[0])


def bound_leaf_contents(
    d: Derivation, labels: frozenset[str], kind: str
) -> list[PFormula | EFormula]:
    """Contents of the open leaves a discharge over ``d`` would bind."""
    return list(_bound_leaves(d, labels, kind))


def _first_bound(d: Derivation, labels: frozenset[str]) -> PFormula | None:
    """The first of ``bound_leaf_contents(d, labels, "p")``, ``None`` if
    there is none; the walk stops there.  An ``imp-i`` reads its
    antecedent off it."""
    return next(_bound_leaves(d, labels, "p"), None)


def all_labels(d: Derivation) -> frozenset[str]:
    """Every label mentioned anywhere in the tree (leaves and binders)."""
    return frozenset(_label_occurrences(d))


def _label_occurrences(d: Derivation) -> list[str]:
    """The labels of :func:`all_labels`, once per occurrence: a leaf's
    label and each label a node discharges.  ``d`` may also be a list of
    nodes, such as a slice of :func:`_preorder`'s."""
    acc: list[str] = []
    for n in d:
        if n.label is not None:
            acc.append(n.label)
        for s in n.discharges:
            acc += s
        acc += n.e_discharges
    return acc


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
    leaf = "hyp" if kind == "p" else "ehyp"

    def leave(n: Derivation, prems, free: frozenset[str]) -> Derivation:
        if n.rule == leaf and n.label in free:
            return replacement
        return _rebuilt(n, prems)

    return _walk(d, _FREE_LABELS[kind], leave, frozenset(labels))


def _with_premises(n: Derivation, premises: tuple[Derivation, ...]) -> Derivation:
    """``n`` over ``premises``, keeping its conclusion and data as they are:
    nothing is computed, so the caller vouches that ``premises`` leave the
    conclusion unchanged."""
    rule, conclusion, *data = _node_data(n)
    return _node(rule, premises, conclusion, *data)


def _rebuilt(n: Derivation, prems, **over) -> Derivation:
    """``n`` over ``prems`` with the fields in ``over`` replaced and its
    conclusion computed again; ``n`` itself when no field is replaced and
    every premise came back as is."""
    if not over and all(map(operator.is_, prems, n.premises)):
        return n
    rule, _conclusion, *data = _node_data(n)
    for f, v in over.items():
        data[_SLOT[f]] = v
    return _mk(rule, tuple(prems), *data)


def _fresh_names(prefix: str, *used):
    """``prefix1``, ``prefix2``, ... skipping the names in any of ``used``."""
    for i in itertools.count(1):
        name = f"{prefix}{i}"
        for u in used:
            if name in u:
                break
        else:
            yield name


def relabel_binders(d: Derivation, forbidden: frozenset[str]) -> Derivation:
    """Rename every discharge label to a fresh one, avoiding ``forbidden``.

    Free leaves keep their labels; bound leaves track their binder.  The
    result is check-equivalent to ``d``.
    """
    return _relabel_binders(d, _fresh_names("l", all_labels(d), forbidden))


def _relabel_binders(d: Derivation, fresh) -> Derivation:
    """:func:`relabel_binders` taking the new names in turn from the
    iterator ``fresh``, which must yield no label of ``d``."""
    # (kind, label) -> the new names its binders above the current node
    # give it, innermost last: a node pushes the names its parent binds over
    # it on the way down and pops them on the way up.
    bound: dict[tuple[str, str], list[str]] = {}

    def enter(n: Derivation, binds):
        for key, new in binds:
            bound.setdefault(key, []).append(new)
        names: list = [[] for _ in n.premises]
        for slot, labels, k in _scopes(n):
            names[slot] += [((k, lab), next(fresh)) for lab in sorted(labels)]
        return list(zip(n.premises, names)), (binds, names)

    def leave(n: Derivation, prems, state) -> Derivation:
        binds, names = state
        over: dict = {}
        if n.rule in ("hyp", "ehyp"):
            new = bound.get(("p" if n.rule == "hyp" else "e", n.label))
            if new:
                over["label"] = new[-1]
        for slot, _labels, k in _scopes(n):
            renamed = frozenset(new for (kk, _lab), new in names[slot] if kk == k)
            if k == "p":
                over["discharges"] = over.get("discharges", ()) + (renamed,)
            else:
                over["e_discharges"] = renamed
        for key, _new in binds:
            bound[key].pop()
        return _rebuilt(n, prems, **over)

    return _walk(d, enter, leave, ())


# --- checking --------------------------------------------------------------

#: What a recorded step of each kind must be, for messages (a
#: ``refl-trans`` step may be any).
_STEP_LENGTH = {
    "succ": "exactly one token",
    "succ-refl": "at most one token",
    "trans": "at least one token",
}


def check(d: Derivation, system: System) -> CheckReport:
    """Check ``d`` against ``system``; never raises on a tree of nodes the
    keyword constructor accepts, nor on a node over a number of premises
    its rule does not take, which is a violation.

    Returns every violation found together with the open-assumption
    multiset; ``ok`` holds exactly when there are no violations.  Open
    assumptions are ordered by label, ``None`` read as ``""``, and then, only
    where a label has several contents, by the contents' printed text.
    """
    violations, merged = _check_walk(d, system)
    if isinstance(d.conclusion, EFormula):
        violations.append(
            Violation((), d.rule, "a derivation must conclude a p-formula")
        )
    groups: dict[str, list[tuple[Assumption, int]]] = {}
    for lab, contents in merged.items():
        groups.setdefault(lab or "", []).extend(
            (Assumption(lab, c), cnt) for c, cnt in contents.items()
        )
    assumptions = []
    for _key, group in sorted(groups.items()):
        if len(group) > 1:  # stable: equal texts keep their walk order
            group.sort(key=lambda entry: _content_str(entry[0].content))
        assumptions += (a for a, cnt in group for _ in range(cnt))
    ordered = tuple(sorted(violations, key=lambda v: (v.path, v.rule, v.message)))
    return CheckReport(not ordered, ordered, tuple(assumptions))


def _check_walk(d: Derivation, system: System) -> tuple[list[Violation], dict]:
    """The violations at the nodes of ``d``, unsorted, and its open
    assumptions as ``label -> {content: count}``.

    Every test at a node reads only the node, its premises' rules and
    conclusions, and its premises' open maps.  Whether the whole
    derivation concludes a p-formula is :func:`check`'s own test.
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
        spec = _RULE_TABLE.get(rule)
        if spec is None or len(n.premises) not in spec.counts:
            bad(path, rule, _arity_fault(spec, len(n.premises)))
        else:
            # Premise slots that must conclude a p-formula.
            for i, q in enumerate(n.premises):
                if i == spec.e_slot:
                    if q.rule != "ehyp":
                        bad(path, rule, "the existence premise must be an "
                            "existence assumption leaf")
                elif q.rule == "ehyp" or isinstance(q.conclusion, EFormula):
                    bad(path, rule, "an existence assumption may stand only as "
                        "the existence premise of box-e or dia-i")
            c = _pf(n.premises[0]) if n.premises else None
            shape_ok = True  # the tests after the shape need a sensible one
            for violated, message in spec.checks:
                if violated(n, c):
                    bad(path, rule, message)
                    shape_ok = False
            if spec.step_from:
                _check_step(n, c, spec, path, system, bad)
            if spec.system and not spec.system[0](system):
                bad(path, rule, spec.system[1])
            # Discharge: pop the labels in scope.
            for idx, kind, j, expect in spec.discharge:
                opens = prem_opens[idx]
                for lab in n.discharges[j] if kind == "p" else n.e_discharges:
                    contents = opens.pop(lab, None)
                    if contents is None or not shape_ok:
                        continue
                    expected = expect(n, c)
                    want_kind = EFormula if kind == "e" else PFormula
                    for content in contents:
                        if not isinstance(content, want_kind) or content != expected:
                            bad(path, rule, f"discharged assumption {lab!r} has "
                                f"content {_content_str(content)} but the rule "
                                f"requires {_content_str(expected)}")
            # Freshness of a witness, against the post-discharge opens.
            scope = spec.witness
            if shape_ok and scope is not None:
                proper = (c if scope else n.conclusion).position + (n.token,)
                gamma = n.conclusion.position
                if gamma[: len(proper)] == proper or _opens_below(
                    prem_opens[scope], proper
                ):
                    what = "the conclusion and " if scope else "the "
                    bad(path, rule, f"witness position {print_position(proper)} "
                        f"must be fresh for {what}remaining open assumptions")
            if not n.premises:  # an assumption leaf
                prem_opens.append({n.label: {n.conclusion: 1}})
        if n.e_discharges and not system.partial:
            bad(path, rule, "existence discharge requires a partial system")
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
    return violations, merged


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


def _check_step(n, c, spec: _Rule, path, system: System, bad) -> None:
    """The logic's conditions on a step rule: its recorded step is one step
    of ``system.step``, and its existence premise, which a partial system
    requires (it must assume the far end of the step), a total one forbids."""
    rule, logic, e = n.rule, system.logic, spec.e_slot
    if n.beta is not None and not step_holds(system.step, (), n.beta):
        bad(path, rule, f"step constraint for logic {logic}: {rule} must record "
            f"{_STEP_LENGTH[system.step]}, got {len(n.beta)}")
    if not system.partial:
        if len(n.premises) > e:
            bad(path, rule, "existence premises are forbidden in total systems")
    elif len(n.premises) <= e:
        bad(path, rule, f"step constraint for logic {logic}: {rule} requires "
            "an existence premise in a partial system")
    # Another premise is flagged as a slot violation.
    elif n.premises[e].rule == "ehyp" and n.beta is not None:
        start = c.position
        want = concat(start, n.beta) if spec.step_from == "premise" else start
        got = n.premises[e].conclusion.position
        if got != want:
            bad(path, rule, "existence premise must assume position "
                f"{print_position(want)}, got {print_position(got)}")


def open_assumptions(d: Derivation) -> tuple[Assumption, ...]:
    """The open-assumption multiset of ``d`` (sorted, with multiplicity),
    which does not depend on the system."""
    return check(d, System("s4")).open_assumptions


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
    nodes, parent, slot, end, _ = _preorder(d)
    instances: list[tuple[int, str, Position, int]] = []
    for i, n in enumerate(nodes):
        scope = _RULE_TABLE[n.rule].witness
        if scope is not None and n.token is not None:
            alpha = (_pf(n.premises[0]) if scope else n.conclusion).position
            start = i + 1  # the pre-order number of the scope premise
            for _ in range(scope):
                start = end[start]
            instances.append((i, n.rule, alpha + (n.token,), start))
    # For each witness length, the nodes whose position has each prefix of
    # that length, in pre-order.
    holders: dict[Position, list[int]] = {}
    for length in {len(proper) for _, _, proper, _ in instances}:
        for i, n in enumerate(nodes):
            pos = n.conclusion.position
            if len(pos) >= length:
                holders.setdefault(pos[:length], []).append(i)
    violations: list[Violation] = []
    seen: set[Position] = set()
    for i, rule, proper, scope in instances:
        faults = []
        if proper in seen:
            faults.append("is introduced by more than one rule instance")
        seen.add(proper)
        at = holders.get(proper)
        if at and (at[0] < scope or at[-1] >= end[scope]):
            faults.append("occurs outside the scope of its introducing rule")
        for fault in faults:
            message = f"witness position {print_position(proper)} {fault}"
            violations.append(Violation(_path_of(i, parent, slot), rule, message))
    return tuple(sorted(violations, key=lambda v: (v.path, v.rule, v.message)))


# --- position transforms ---------------------------------------------------


def map_positions(d: Derivation, fn) -> Derivation:
    """Apply ``fn`` to every absolute position in the tree.

    Recorded step suffixes are recomputed from the mapped endpoint
    positions, and witness tokens from the mapped witness positions, so any
    position-coherent ``fn`` yields a coherent tree.  ``fn`` sees a node's
    positions after those of its premises, premises left to right; a node
    whose premises and positions all come back unchanged is reused.
    """
    return _remap(d, fn)


class _Renaming:
    """The witness renamings in force at a node, innermost scope first.

    Calling it passes a position through ``prefix_replace(p, old, new)`` of
    this scope, then of each enclosing one.  A renaming keeps the length of
    its prefix and changes only the prefix's last token, to a fresh one.  No
    ``old`` prefix contains a fresh token, since fresh numbers start above
    every reserved token in a position or a witness token; so once the
    token at index ``i`` has been renamed, no prefix longer than ``i``
    matches any more, and the walk outward ends when no enclosing prefix is
    that short (``reach`` is the shortest prefix length from here outward).
    """

    __slots__ = ("old", "new", "outer", "reach")

    def __init__(self, old: Position, new: Position, outer) -> None:
        self.old = old
        self.new = new
        self.outer = outer
        self.reach = len(old) if outer is None else min(len(old), outer.reach)

    def __call__(self, p: Position) -> Position:
        bound = len(p)
        r = self
        while r is not None and r.reach <= bound:
            old = r.old
            n = len(old)
            if n <= bound and p[:n] == old:
                p = r.new + p[n:]
                bound = n - 1
            r = r.outer
        return p


def _remap(d: Derivation, fn, witnesses=None) -> Derivation:
    """Rebuild ``d`` once, post-order on an explicit stack.

    Every node's positions go through a map: ``fn`` at the root (``None``
    for none), inherited by each premise.  With ``witnesses`` (from
    :func:`_witness_census`), each ``box-i``/``dia-e`` witness also opens a
    :class:`_Renaming` of its witness position to the next fresh token over
    its scope premise, numbered in post-order.  A subtree with no map in
    force and no witness is kept as it is.
    """
    counts, start = witnesses or ({}, 0)
    done: list[Derivation] = []
    stack: list[tuple] = [(d, fn, None, False)]
    finished = 0  # witnesses whose subtree is rebuilt, for post-order numbers
    while stack:
        n, f, scope, leaving = stack.pop()
        if leaving:
            k = len(n.premises)
            prems = tuple(done[-k:]) if k else ()
            if k:
                del done[-k:]
            done.append(_remapped(n, prems, f, scope))
            if scope is not None:
                finished += 1
            continue
        if f is None and not counts.get(id(n)):
            done.append(n)
            continue
        if not n.premises:
            done.append(_remapped(n, (), f, None))
            continue
        witness = _witness(n) if witnesses else None
        slot = None
        if witness is not None:
            old, slot = witness
            name = f"{RESERVED_TOKEN_PREFIX}{start + finished + counts[id(n)] - 1}"
            scope = _Renaming(old, old[:-1] + (name,), f)
        stack.append((n, f, scope, True))
        for i in range(len(n.premises) - 1, -1, -1):
            stack.append((n.premises[i], scope if i == slot else f, None, False))
    return done[0]


def _remapped(n: Derivation, prems: tuple[Derivation, ...], f, scope) -> Derivation:
    """``n`` over its rebuilt premises, its positions through ``f``.

    ``scope`` is the renaming a witness node opened over its scope premise.
    Without a map in force only a witness changes: its token becomes the
    fresh one.  Otherwise recorded steps and witness tokens are recomputed
    from the mapped endpoints as :func:`map_positions` documents.
    """
    over: dict = {}
    if f is None:
        if scope is not None:
            over["token"] = scope.new[-1]
    else:
        for fld in ("content", "ante", "target"):
            c = getattr(n, fld)
            if c is not None:
                q = f(c.position)
                if q != c.position:
                    is_e = isinstance(c, EFormula)
                    over[fld] = EFormula(q) if is_e else PFormula(c.formula, q)
        spec = _RULE_TABLE[n.rule]
        if spec.step_from and n.beta is not None:
            old, new = _pf(n.premises[0]).position, _pf(prems[0]).position
            if spec.step_from == "premise":
                base, tgt = new, f(concat(old, n.beta))
            else:
                base, tgt = f(old[: len(old) - len(n.beta)]), new
            beta = tgt[len(base) :] if tgt[: len(base)] == base else tgt
            if beta != n.beta:
                over["beta"] = beta
        elif spec.witness is not None and n.token is not None:
            # Over its premise the witness is where the rebuilt premise
            # concludes, else the mapped extension of the major's position.
            if spec.witness:
                proper = (scope or f)(_pf(n.premises[0]).position + (n.token,))
            else:
                proper = _pf(prems[0]).position
            if proper and proper[-1] != n.token:
                over["token"] = proper[-1]
    return _rebuilt(n, prems, **over)


_FRESH_RE = re.compile(re.escape(RESERVED_TOKEN_PREFIX) + r"([0-9]+)$")


def _reserved_index(tok: str) -> int:
    """1 + the index of a reserved token ``_N``, else 0."""
    m = _FRESH_RE.fullmatch(tok)
    return int(m.group(1)) + 1 if m else 0


def _witness(n: Derivation) -> tuple[Position, int] | None:
    """The witness position ``n`` scopes and its scope premise slot, for a
    ``box-i`` with a token over a premise at a non-empty position and a
    ``dia-e`` with a token (see ``_Rule.witness``), else ``None``."""
    if n.token is None:
        return None
    scope = _RULE_TABLE[n.rule].witness
    if scope is None:
        return None
    pos = n.premises[0].conclusion.position
    if scope:
        pos += (n.token,)
    return (pos, scope) if pos else None


def _witness_census(d: Derivation) -> tuple[dict[int, int], int]:
    """What :func:`freshen` numbers its witnesses from, in one pass.

    Returns the number of witness nodes in each subtree (keyed by ``id``)
    and the first free reserved index: 1 + the highest ``_N`` in any
    position or ``box-i``/``dia-e`` token.  A ``dia-e`` token can occur in
    no position, and a fresh number equal to it would let an enclosing
    renaming map that witness again, onto another one's token.
    """
    counts: dict[int, int] = {}
    start = 0
    for n in reversed(list(d)):  # premises before the nodes above them
        for c in (n.conclusion, n.content, n.ante, n.target):
            if c is not None:
                for tok in c.position:
                    if tok.startswith(RESERVED_TOKEN_PREFIX):
                        start = max(start, _reserved_index(tok))
        if n.token is not None:
            start = max(start, _reserved_index(n.token))
        own = 0 if _witness(n) is None else 1
        for p in n.premises:
            own += counts[id(p)]
        counts[id(n)] = own
    return counts, start


def freshen(d: Derivation) -> Derivation:
    """Rename every witness position to a globally fresh reserved token.

    The witnesses are the ``box-i`` nodes with a token over a premise at a
    non-empty position and the ``dia-e`` nodes with a token.  They are
    numbered in post-order, starting at 1 + the highest ``_N`` index found in
    any position or witness token of ``d`` (at 0 when there is none), so no
    two witnesses end up with one token; the witness position of
    each (``alpha.x`` of a ``box-i`` concluding at ``alpha``, ``alpha.x`` of a
    ``dia-e`` whose major concludes at ``alpha``) is renamed to ``alpha._N``
    throughout its scope premise, inner scopes before outer ones.  The result
    contains the new tokens, so ``freshen`` is not idempotent: applied again,
    it numbers from above them.  A tree without witnesses is returned as it
    is.

    The renamings of nested scopes are composed and applied in one pass over
    the tree, whatever its depth.  That equals renaming one scope at a time
    (each scope re-walked for every enclosing witness) on every tree whose
    ``dia-i`` steps are suffixes of their premises' positions and whose
    ``dia-e`` nodes do not conclude under their own witness positions, so on
    every checking tree.  There it preserves the conclusion, the open
    assumptions, and checkability, and (re)establishes the global
    witness-position discipline.
    """
    census = _witness_census(d)
    if not census[0][id(d)]:
        return d
    return _remap(d, None, census)


def _drop_trivial_reposition(d: Derivation) -> Derivation:
    """Remove absurdity repositionings whose endpoints collapsed."""

    def leave(n: Derivation, prems, _state) -> Derivation:
        node = _rebuilt(n, prems)
        if (
            node.rule == "bot-i"
            and node.target is not None
            and isinstance(node.target.formula, Bottom)
            and node.premises[0].conclusion == node.conclusion
        ):
            return node.premises[0]
        return node

    return _walk(d, _premises, leave)


def substitute(
    d: Derivation, beta: Position, gamma: Position, system: System
) -> Derivation:
    """Rewrite positions by replacing the prefix ``beta`` with ``gamma``.

    Witness positions are freshened first so the replacement cannot capture
    them.  Absurdity repositionings whose two positions collapse are
    removed.  The result is re-checked; if the rewrite broke a rule
    constraint (possible when the replaced prefix cuts through a recorded
    step), ``SubstitutionUnsound`` is raised.
    """
    if not check(d, system).ok:
        raise ValueError("substitute requires a derivation that checks")
    out = _substitute(freshen(d), tuple(beta), tuple(gamma))
    post = check(out, system)
    if not post.ok:
        raise SubstitutionUnsound(
            f"replacing prefix {print_position(beta)} by "
            f"{print_position(gamma)} broke the derivation: "
            + "; ".join(v.message for v in post.violations[:3]),
            post.violations,
        )
    return out


def _substitute(d: Derivation, beta: Position, gamma: Position) -> Derivation:
    """:func:`substitute` without its freshen and its checks, for a ``d``
    that checks and whose witnesses have tokens of their own, used in no
    position outside their scopes (as after a :func:`freshen` of a tree
    that holds ``d``): the replacement then cannot capture them.  A rewrite
    that cuts through a recorded step still raises ``SubstitutionUnsound``;
    the caller checks the result."""
    mapped = map_positions(d, lambda p: prefix_replace(p, beta, gamma))
    for orig, new in zip(d, mapped):
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
    return _drop_trivial_reposition(mapped)


def lift(d: Derivation, beta: Position, system: System) -> Derivation:
    """Shift the whole derivation below the position ``beta``.

    Every position (existence assumptions included) is prefixed by
    ``beta``; the conclusion at position ``p`` moves to ``beta + p``.
    """
    if not check(d, system).ok:
        raise ValueError("lift requires a derivation that checks")
    beta = tuple(beta)
    lifted = map_positions(d, lambda p: concat(beta, p))
    post = check(lifted, system)
    if not post.ok:
        raise SubstitutionUnsound(
            "lift broke the derivation: "
            + "; ".join(v.message for v in post.violations[:3]),
            post.violations,
        )
    return lifted


# --- absurdity expansion ---------------------------------------------------


def _tokens(d: Derivation) -> set[str]:
    """Every token of a position in ``d``: of its conclusions, assumed
    contents, antecedents and targets, and of its ``dia-e`` witness
    positions (a witness that no assumption uses occurs nowhere else)."""
    toks: set[str] = set()
    for n in d:
        toks.update(n.conclusion.position)
        for c in (n.content, n.ante, n.target):
            if c is not None:
                toks.update(c.position)
        if n.rule == "dia-e" and n.token is not None:
            toks.add(n.token)
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
    fresh = _fresh_names("z", _tokens(premise).union(target.position))

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
            x = next(fresh)
            return box_i(x, frozenset(), build(PFormula(f.body, alpha + (x,))))
        if isinstance(f, Dia):
            if system.partial:
                raise NotExpandable(
                    "cannot expand a possibility formula in a partial system: "
                    + print_formula(f),
                    f,
                )
            x = next(fresh)
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


def _unwritable(what: str, names: list) -> str | None:
    """Why a proof file cannot carry one of ``names``, each a ``what``, or ``None``: a
    label obeys ``_LABEL_RE``, a token ``valid_user_token`` or is a reserved ``_N``."""
    rule = _LABEL_RE.fullmatch if what == "label" else _WORD_RE.fullmatch
    for name in names:
        if not isinstance(name, str) or not (
            rule(name) or what == "token" and _reserved_index(name)
        ):
            return f"{what} {name!r} cannot be written in a proof file"
    return None


def _written(what: str, names: list) -> list:
    """``names``; ``ValueError`` if a proof file cannot carry one."""
    fault = _unwritable(what, names)
    if fault:
        raise ValueError(fault)
    return names


def _header(toks: list[str]) -> tuple[System, int, int]:
    """The system a proof file's header names, the token index of its root
    node and the root's place among the proof form's elements."""
    if toks[0] != "(":
        raise Fault("expected (proof ...)", -1)
    if _sexpr.atom_at(toks, 1) != "proof":
        raise Fault("expected (proof ...)", 0)
    kv: dict[str, int] = {}
    i, place = 2, 1
    while isinstance(key := _sexpr.atom_at(toks, i), str) and key.startswith(":"):
        if toks[i + 1] == ")":
            raise Fault(f"missing value for {key}", 0)
        kv[str(key)] = i + 1
        i, place = _sexpr.skip(toks, i + 1), place + 2
    if ":system" not in kv or ":flavor" not in kv:
        raise Fault("proof header needs :system and :flavor", 0)
    names = []
    for key, allowed, what in ((":system", LOGICS, "logic"), (":flavor", FLAVORS, "flavor")):
        name = _sexpr.atom_at(toks, kv[key])
        if name not in allowed:
            raise Fault(f"unknown {what} {brief(toks, kv[key])}", 0)
        names.append(str(name))
    if toks[i] == ")":
        raise Fault(_ONE_ROOT, 0)
    return System(*names), i, place


def _arguments_fault(toks: list[str], items: list[int]) -> str | None:
    """What is wrong with the argument count or the witness tokens of the
    rule application with elements at token indices ``items``."""
    head = str(_sexpr.atom(toks[items[0]]))
    spec, args = _RULE_TABLE[head], items[1:]
    n = len(spec.args)
    if len(args) != n and (not spec.optional or len(args) != n - spec.optional):
        message = f"{head} expects {spec.arity}"
        if not spec.optional:
            message += f" ({n} argument{'s' if n != 1 else ''}, got {len(args)})"
        return message
    for i in spec.tokens:
        if _word(toks[args[i]]) is None:
            return f"invalid token {brief(toks, args[i])}"
    return None


def _rule_head(toks: list[str], i: int) -> tuple[str, tuple]:
    """The rule and plan of the rule application at token ``i``."""
    if toks[i] != "(":
        raise Fault("expected a rule application (rule ...)", -1)
    name = _sexpr.atom_at(toks, i + 1)
    if not isinstance(name, str):
        raise Fault("expected a rule application (rule ...)", i)
    head = str(name)
    if head not in _PLANS:
        raise Fault(f"unknown rule {head!r}", i)
    return head, _PLANS[head]


def _plan(spec: _Rule) -> tuple:
    """What the reader does with each argument of a rule: ``(kind, slot)``,
    the slot a field's index in ``_FIELDS`` or a label list's scope kind,
    with ``("rest", None)`` before the arguments that may be left out."""
    plan = [(kind, f[1] if kind == "labels" else _SLOT.get(f)) for kind, f in spec.args]
    if spec.optional:
        plan.insert(len(plan) - spec.optional, ("rest", None))
    return tuple(plan)


_PLANS = {rule: _plan(spec) for rule, spec in _RULE_TABLE.items()}
_ANTE, _DISCHARGES, _E_DISCHARGES, _BETA = (
    _SLOT[f] for f in ("ante", "discharges", "e_discharges", "beta")
)
_ONE_FORM = "expected exactly one proof form"
_ONE_ROOT = "proof form needs exactly one root node"


def parse_proof(text: str) -> tuple[Derivation, System]:
    """Parse a proof file: ``(proof :system S :flavor F <node>)``.

    The tokens are read once, in file order and on an explicit stack, and
    each node is built by ``_node`` when its ``)`` is read.  Formulas,
    p-formulas, label sets, labels and tokens that repeat are read once and
    shared.  On the first fault, ``_sexpr.read_one`` works out the error
    from the tokens as a reader that checks a list before its elements
    would: a syntax error or a wrong number of forms, then the header's root
    count and each open node's argument count and witness tokens, outermost
    first, then the fault.
    """
    return _sexpr.read_one(text, _read_proof, (_ONE_FORM, _ONE_FORM))


def _read_proof(toks: list[str]) -> tuple[tuple[Derivation, System], int]:
    """The reader ``parse_proof`` hands to ``_sexpr.read_one``."""
    stack: list[list] = []  # the open nodes above ``frame``
    frame, frames = None, []
    try:
        system, i, place = _header(toks)
        frames.append((0, 0, lambda _, items: None if len(items) == place + 1 else _ONE_ROOT))
        head, plan = _rule_head(toks, i)
        # a node's frame: its start, rule, arguments to read, premises and
        # fields in ``_FIELDS`` order, from their defaults
        frame = [i, head, iter(plan), [], list(_DEFAULTS)]
        i += 2
        forms: dict = {}  # token or (constructor, operand ids) -> formula
        words: dict = {}  # token -> position or witness token
        labels: dict = {}  # token -> label
        sets: dict = {}  # tokens -> label set
        pfs: dict = {}  # (formula id, position) -> p-formula
        while True:
            start, head, args, prems, fields = frame
            for kind, slot in args:
                tok = toks[i]
                if kind == "premise":
                    head = toks[i + 1]
                    plan = _PLANS.get(head)
                    if plan is None or tok != "(":
                        head, plan = _rule_head(toks, i)
                    stack.append(frame)
                    frame = [i, head, iter(plan), [], list(_DEFAULTS)]
                    i += 2
                    break
                if kind == "formula":
                    f = forms.get(tok)
                    if f is not None:
                        i += 1
                    elif tok[0] == '"':  # formula text
                        try:
                            f = parse_formula(_sexpr.atom(tok))
                        except ParseError as exc:
                            raise Fault(exc.message, start) from None
                        i += 1
                    else:
                        f, i = _read_formula(toks, i, forms, i if tok == "(" else start)
                    fields[slot] = f
                elif kind == "position":
                    if tok != "(":
                        raise Fault("expected a position (tok ...)", start)
                    pos, i = _read_position(toks, i, words, i)
                    f = fields[slot]
                    if f is None:
                        fields[slot] = pos if slot == _BETA else EFormula(pos)
                    else:  # after its formula
                        pf = pfs.get((id(f), pos))
                        if pf is None:
                            pf = pfs[id(f), pos] = PFormula(f, pos)
                        fields[slot] = pf
                elif kind == "label":
                    if tok not in labels:
                        if not _LABEL_RE.fullmatch(tok):
                            raise Fault(f"invalid label {brief(toks, i)}", start)
                        labels[tok] = tok
                    fields[slot] = labels[tok]
                    i += 1
                elif kind == "labels":
                    if tok != "(":
                        raise Fault("expected a label list (...)", start)
                    j = _sexpr.skip(toks, i) - 1
                    key = tuple(toks[i + 1 : j])
                    got = sets.get(key)
                    if got is None:
                        for k in range(i + 1, j):
                            if toks[k] not in labels:
                                if not _LABEL_RE.fullmatch(toks[k]):
                                    raise Fault(f"invalid label {brief(toks, k)}", i)
                                labels[toks[k]] = toks[k]
                        got = sets[key] = frozenset(key)
                        if len(got) != len(key):
                            raise Fault("duplicate label in label list", i)
                    if slot == "p":
                        fields[_DISCHARGES] += (got,)
                    else:
                        fields[_E_DISCHARGES] = got
                    i = j + 1
                elif kind == "token":
                    word = words[tok] = words.get(tok) or _word(tok)
                    if word is None:
                        raise Fault(None, start)
                    fields[slot] = word
                    i += 1
                elif tok == ")":  # the optional arguments are left out
                    for _ in args:
                        pass
            else:
                if toks[i] != ")":
                    raise Fault(None, start)
                i += 1
                if head == "imp-i" and fields[_ANTE] is None:
                    fields[_ANTE] = _first_bound(prems[0], fields[_DISCHARGES][0])
                    if fields[_ANTE] is None:
                        raise Fault(
                            "imp-i discharges no open assumption; give the antecedent "
                            "formula and position explicitly",
                            start,
                        )
                node = _node(head, tuple(prems), None, *fields)
                if not stack:
                    break
                frame = stack.pop()
                frame[3].append(node)
        if toks[i] != ")":
            raise Fault(None, -1)
        return (node, system), i + 1
    except Fault as fault:
        nodes = stack + [frame] if frame else []
        fault.frames[:0] = frames + [(n[0], n[0], _arguments_fault) for n in nodes]
        raise


def _token_map(d: Derivation) -> dict[str, str]:
    """Each reserved token of ``d``, sorted, to the next unused ``zN``."""
    toks = _tokens(d)
    reserved = sorted(t for t in toks if t.startswith(RESERVED_TOKEN_PREFIX))
    return dict(zip(reserved, _fresh_names("z", toks)))


def sanitize_tokens(d: Derivation) -> Derivation:
    """Rename reserved (machine-generated) tokens to printable fresh ones.

    Tokens starting with the reserved prefix are renamed elementwise by a
    bijection onto unused ordinary tokens (:func:`_token_map`), so a
    printed proof always re-parses to a check-equivalent tree.
    """
    mapping = _token_map(d)
    if not mapping:
        return d
    return map_positions(
        d, lambda p: tuple(mapping.get(t, t) for t in p)
    )


def _formula_form(f: Formula) -> str:
    """The text of ``f`` in a proof file, which reads back as ``f``: an atom
    name that does not read back bare is quoted (``ValueError`` for one no
    formula carries), and a quoted atom alone is quoted again, since a
    formula slot reads a string as formula text."""
    text = _write_formula(f, strict=True)
    if text[0] == '"' and not _VERBATIM_RE.fullmatch(f.name):
        return _sexpr._quote(text)
    return text


def _node_args(n: Derivation, mapping: dict[str, str]):
    """The file arguments of ``n`` in order: premises as derivations, the
    others as their text, their tokens renamed by ``mapping``."""
    spec = _RULE_TABLE.get(n.rule)
    if spec is None:
        raise ValueError(f"unknown rule {n.rule!r}")
    for i, (kind, fld) in enumerate(spec.args):
        # An existence premise is written when present, an antecedent when
        # no bound leaf gives it.
        if i == len(spec.args) - spec.optional and (
            fld >= len(n.premises)
            if kind == "premise"
            else _first_bound(n.premises[0], n.discharges[0]) is not None
        ):
            return
        if kind == "premise":
            yield n.premises[fld]
        elif kind == "labels":
            _slot, scope, j = fld
            labels = n.discharges[j] if scope == "p" else n.e_discharges
            yield "(" + " ".join(_written("label", sorted(labels))) + ")"
        elif kind == "formula":
            v = getattr(n, fld)
            yield _formula_form(v.formula if isinstance(v, PFormula) else v)
        elif kind == "position":
            v = getattr(n, fld)
            pos = v.position if fld != "beta" else v or ()
            yield print_position(_written("token", list(map(mapping.get, pos, pos))))
        elif kind == "token":
            yield _written("token", [mapping.get(n.token, n.token)])[0]
        else:
            yield _written("label", [n.label])[0]


#: The deepest indentation ``print_proof`` writes, in levels of two spaces.
_INDENT_LIMIT = 32


def print_proof(d: Derivation, system: System) -> str:
    """Serialize a derivation; every label and token written reads back as
    itself.  Reserved tokens are written as :func:`sanitize_tokens` renames
    them; a label or token a proof file cannot carry raises ``ValueError``.
    Formulas are written by :func:`_formula_form`.

    Each premise starts a line of its own, indented one level deeper than
    its conclusion up to ``_INDENT_LIMIT`` levels, so the text grows
    linearly with the tree at any depth; every other argument follows on
    the current line.
    """
    mapping = _token_map(d)
    out = [f"(proof :system {system.logic} :flavor {system.flavor}\n  ({d.rule}"]
    stack = [(_node_args(d, mapping), "\n    ")]  # a node's arguments, its premises' indent
    while stack:
        args, indent = stack[-1]
        for a in args:
            if isinstance(a, Derivation):
                out.append(indent + "(" + a.rule)
                if len(indent) < 2 * _INDENT_LIMIT:
                    indent += "  "
                stack.append((_node_args(a, mapping), indent))
                break
            out.append(" " + a)
        else:
            out.append(")")
            stack.pop()
    out.append(")\n")
    return "".join(out)


def print_check_report(report: CheckReport) -> str:
    """Serialize a check report as a single s-expression; an open label or
    token it cannot write raises ``ValueError``, as in :func:`print_proof`.
    Each distinct formula object is written once per call."""
    opens = report.open_assumptions
    _written("label", [a.label for a in opens])
    _written("token", [t for a in opens for t in a.content.position])
    violations = " ".join(
        f"(violation :path ({' '.join(map(str, v.path))}) :rule {v.rule}"
        f" :condition {_sexpr._quote(v.message)})"
        for v in report.violations
    )
    texts: dict[int, str] = {}  # by id: ``report`` keeps each formula alive
    forms = []
    for a in opens:
        c, pos = a.content, print_position(a.content.position)
        if isinstance(c, EFormula):
            forms.append(f"(open :label {a.label} :exists {pos})")
            continue
        text = texts.get(id(c.formula))
        if text is None:
            text = texts[id(c.formula)] = _formula_form(c.formula)
        forms.append(f"(open :label {a.label} :formula {text} :position {pos})")
    ok = "true" if report.ok else "false"
    return f"(check-report :ok {ok} :violations ({violations}) :open ({' '.join(forms)}))\n"
