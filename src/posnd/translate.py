"""Double-negation and labelled-sequent views of position-decorated proofs.

Two independent bridges out of the classical systems:

* a formula translation ``g_translate`` together with a proof transformer
  ``classical_to_intuitionistic`` that maps every classically checking
  derivation to an intuitionistically checking one concluding the
  translated formula at the same position, and
* a rendering ``derivation_to_labelled`` of checking derivations as
  labelled sequent-calculus proof sketches, where positions become world
  labels and recorded steps become relational atoms.

The double-negation side leans on two helpers that are useful on their
own: ``build_dne`` derives the double-negation elimination implication
for formulas in the negative fragment, and ``contrapose`` swaps an open
assumption with the conclusion, negating both.  Both bridges walk a
derivation on the kernel's explicit-stack walker, so they take any depth.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from . import kernel as K
from .kernel import Derivation, System
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
    concat,
    neg,
    print_formula,
)

__all__ = [
    "TranslateError",
    "NotEligible",
    "LabelNotOpen",
    "g_translate",
    "is_negative_over_dna",
    "build_dne",
    "contrapose",
    "classical_to_intuitionistic",
    "pos_to_relational",
    "position_label",
    "LabelledSequent",
    "LabelledStep",
    "LabelledProofSketch",
    "judgment_to_labelled",
    "derivation_to_labelled",
    "print_labelled",
]


class TranslateError(Exception):
    """Base class for translation failures."""


class NotEligible(TranslateError):
    """The formula lies outside the negative fragment."""


class LabelNotOpen(TranslateError):
    """The named assumption is not open (or not uniquely determined)."""


# --- formula translation ----------------------------------------------------


def g_translate(f: Formula) -> Formula:
    """Negative translation: double-negate atoms, rewrite ``or``/``dia``.

    Conjunction, implication and necessity pass through unchanged;
    absurdity is fixed; disjunction becomes the negated conjunction of
    the negated translations; possibility becomes the negated necessity
    of the negated translation.
    """
    if isinstance(f, Bottom):
        return f
    if isinstance(f, Atom):
        return neg(neg(f))
    if isinstance(f, And):
        return And(g_translate(f.left), g_translate(f.right))
    if isinstance(f, Or):
        return neg(And(neg(g_translate(f.left)), neg(g_translate(f.right))))
    if isinstance(f, Imp):
        return Imp(g_translate(f.left), g_translate(f.right))
    if isinstance(f, Box):
        return Box(g_translate(f.body))
    if isinstance(f, Dia):
        return neg(Box(neg(g_translate(f.body))))
    raise TypeError(f"not a formula: {f!r}")


def _is_dna(f: Formula) -> bool:
    """Is ``f`` the double negation of an atom distinct from absurdity?"""
    return (
        isinstance(f, Imp)
        and isinstance(f.right, Bottom)
        and isinstance(f.left, Imp)
        and isinstance(f.left.right, Bottom)
        and isinstance(f.left.left, Atom)
    )


def is_negative_over_dna(f: Formula) -> bool:
    """Membership in the negative fragment.

    The fragment is generated from absurdity and double-negated atoms by
    conjunction, implication and necessity only.  Every ``g_translate``
    image lands here.
    """
    if isinstance(f, Bottom):
        return True
    if _is_dna(f):
        return True
    if isinstance(f, (And, Imp)):
        return is_negative_over_dna(f.left) and is_negative_over_dna(f.right)
    if isinstance(f, Box):
        return is_negative_over_dna(f.body)
    return False


# --- fresh-name supply ------------------------------------------------------


class _Alloc:
    """Fresh labels and witness tokens avoiding everything already in use."""

    def __init__(self, labels=(), tokens=()):
        self._labels = K._fresh_names("h", frozenset(labels))
        self._tokens = K._fresh_names("z", frozenset(tokens))

    def label(self) -> str:
        return next(self._labels)

    def token(self) -> str:
        return next(self._tokens)


# --- double-negation elimination for the negative fragment ------------------


def _dne(f: Formula, alpha: Position, system: System, alloc: _Alloc) -> Derivation:
    """Derive ``(not not f -> f)`` at ``alpha`` for negative ``f``."""
    nnf = neg(neg(f))
    if isinstance(f, Bottom):
        # Apply the doubly negated absurdity to the identity implication.
        u, v = alloc.label(), alloc.label()
        ident = K.imp_i(frozenset({v}), K.hyp(v, Bottom(), alpha))
        return K.imp_i(frozenset({u}), K.imp_e(K.hyp(u, nnf, alpha), ident))
    if isinstance(f, And):
        u = alloc.label()
        major = K.hyp(u, nnf, alpha)

        def part(proj, side: Formula) -> Derivation:
            r, s = alloc.label(), alloc.label()
            inner = K.imp_e(
                K.hyp(r, neg(side), alpha), proj(K.hyp(s, f, alpha))
            )
            nn_side = K.imp_i(
                frozenset({r}),
                K.imp_e(major, K.imp_i(frozenset({s}), inner)),
            )
            return K.imp_e(_dne(side, alpha, system, alloc), nn_side)

        left = part(K.and_e1, f.left)
        right = part(K.and_e2, f.right)
        return K.imp_i(frozenset({u}), K.and_i(left, right))
    if isinstance(f, Imp):
        # Only the consequent's instance is needed; this covers the
        # double-negated-atom base case through the absurdity base case.
        u, a, r, s = (alloc.label() for _ in range(4))
        inner = K.imp_e(
            K.hyp(r, neg(f.right), alpha),
            K.imp_e(K.hyp(s, f, alpha), K.hyp(a, f.left, alpha)),
        )
        nn_right = K.imp_i(
            frozenset({r}),
            K.imp_e(K.hyp(u, nnf, alpha), K.imp_i(frozenset({s}), inner)),
        )
        body = K.imp_e(_dne(f.right, alpha, system, alloc), nn_right)
        return K.imp_i(frozenset({u}), K.imp_i(frozenset({a}), body))
    if isinstance(f, Box):
        u, r, w = alloc.label(), alloc.label(), alloc.label()
        x = alloc.token()
        step = alpha + (x,)
        if system.partial:
            e = alloc.label()
            e_premise = K.ehyp(e, step)
            e_labels = frozenset({e})
        else:
            e_premise, e_labels = None, frozenset()
        opened = K.box_e(K.hyp(w, f, alpha), (x,), e_premise)
        refute = K.bot_i(
            K.imp_e(K.hyp(r, neg(f.body), step), opened), Bottom(), alpha
        )
        not_f = K.imp_i(frozenset({w}), refute)
        nn_body = K.imp_i(
            frozenset({r}),
            K.bot_i(K.imp_e(K.hyp(u, nnf, alpha), not_f), Bottom(), step),
        )
        body = K.imp_e(_dne(f.body, step, system, alloc), nn_body)
        return K.imp_i(frozenset({u}), K.box_i(x, e_labels, body))
    raise NotEligible(f"not in the negative fragment: {print_formula(f)}")


def build_dne(f: Formula, alpha: Position, system: System) -> Derivation:
    """Closed derivation of ``(not not f -> f)`` at ``alpha``.

    Only formulas in the negative fragment are eligible; everything the
    construction introduces is intuitionistic, and every recorded step
    has length one, so the result checks in all six logics of the given
    partiality discipline.
    """
    if system.flavor != "intuitionistic":
        raise ValueError("double-negation elimination targets intuitionistic systems")
    if not is_negative_over_dna(f):
        raise NotEligible(f"not in the negative fragment: {print_formula(f)}")
    alpha = tuple(alpha)
    return _dne(f, alpha, system, _Alloc(tokens=alpha))


# --- contraposition ---------------------------------------------------------


def _contrapose(
    d: Derivation,
    labels: frozenset[str],
    assumed: PFormula,
    neg_label: str,
) -> Derivation:
    concl = d.conclusion
    if not isinstance(concl, PFormula):
        raise ValueError("cannot contrapose an existence conclusion")
    bottom = K.imp_e(K.hyp(neg_label, neg(concl.formula), concl.position), d)
    if concl.position != assumed.position:
        bottom = K.bot_i(bottom, Bottom(), assumed.position)
    return K.imp_i(frozenset(labels), bottom, ante=assumed)


def contrapose(
    d: Derivation, label: str, *, neg_label: str | None = None
) -> Derivation:
    """Swap one open assumption with the conclusion, negating both.

    From a derivation of ``B`` at its position with ``label`` assuming
    ``A`` at some position, produce a derivation of the negated ``A``
    whose new open assumption (under ``neg_label``, freshly chosen when
    omitted) is the negated ``B`` at the conclusion's position.  When
    the two positions differ the absurdity obtained along the way is
    repositioned.
    """
    contents = {
        a.content for a in K.open_assumptions(d) if a.label == label
    }
    if not contents:
        raise LabelNotOpen(f"no open assumption labelled {label!r}")
    if len(contents) > 1:
        raise LabelNotOpen(f"label {label!r} names more than one assumption")
    (content,) = contents
    if not isinstance(content, PFormula):
        raise LabelNotOpen("existence assumptions cannot be contraposed")
    used = K.all_labels(d)
    if neg_label is None:
        neg_label = _Alloc(labels=used).label()
    elif neg_label in used:
        raise ValueError(f"label {neg_label!r} is already in use")
    return _contrapose(d, frozenset({label}), content, neg_label)


# --- classical-to-intuitionistic proof transformation -----------------------


def classical_to_intuitionistic(d: Derivation, system: System) -> Derivation:
    """Translate a classically checking derivation into the same logic's
    intuitionistic system.

    The conclusion and every open regular assumption are replaced by
    their ``g_translate`` images at unchanged positions; existence
    assumptions pass through untouched.  The result is re-checked before
    being returned.
    """
    if system.flavor != "classical":
        raise ValueError("input system must be classical")
    report = K.check(d, system)
    if not report.ok:
        raise ValueError("derivation does not check in the given system")
    target = replace(system, flavor="intuitionistic")
    alloc = _Alloc(labels=K.all_labels(d), tokens=K._tokens(d))
    out = _ci(d, target, alloc)
    again = K.check(out, target)
    if not again.ok:  # pragma: no cover - internal coherence guard
        raise AssertionError(
            "translated derivation failed to check: "
            + "; ".join(str(v) for v in again.violations)
        )
    return out


def _reposition(bottom: Derivation, position: Position) -> Derivation:
    if bottom.conclusion.position == position:
        return bottom
    return K.bot_i(bottom, Bottom(), position)


#: Rules that take a fresh label before their premises are translated.
_LABEL_FIRST = frozenset({"or-i1", "or-i2", "or-e", "dia-i", "dia-e"})


def _ci(d: Derivation, target: System, alloc: _Alloc) -> Derivation:
    """The translation of ``d``, built bottom-up.  Labels and tokens are
    taken in the order of a recursive translation: a case split translates
    its minors before its major, and some rules take a label (``u``) before
    their premises, others (through ``_dne``) after them."""

    def enter(n: Derivation, _env):
        prems = [(p, None) for p in n.premises]
        if n.rule in K.JOIN_RULES:
            prems = prems[1:] + prems[:1]
        return prems, alloc.label() if n.rule in _LABEL_FIRST else None

    def leave(d: Derivation, prems: list, u: str | None) -> Derivation:
        r = d.rule
        if r in K.JOIN_RULES:
            prems = prems[-1:] + prems[:-1]
        if r in ("ehyp", "and-i", "and-e1", "and-e2", "imp-e", "box-i", "box-e"):
            return K._rebuilt(d, prems)  # premise for premise, data kept
        if r == "hyp":
            c = d.content
            return K.hyp(d.label, g_translate(c.formula), c.position)
        if r == "imp-i":
            ante = PFormula(
                g_translate(d.conclusion.formula.left), d.conclusion.position
            )
            return K.imp_i(d.discharges[0], prems[0], ante=ante)
        if r == "bot-i":
            t = d.target
            body = prems[0]
            if isinstance(t.formula, Bottom):
                return K.bot_i(body, Bottom(), t.position)
            # Atomic targets translate to double negations, which the
            # absurdity rule cannot conclude directly: reposition, then
            # introduce the (vacuous) outer negation over the once-negated
            # atom.
            body = _reposition(body, t.position)
            ante = PFormula(neg(t.formula), t.position)
            return K.imp_i(frozenset(), body, ante=ante)
        if r == "bot-c":
            t = d.target
            goal = g_translate(t.formula)
            body = _reposition(prems[0], t.position)
            ante = PFormula(neg(goal), t.position)
            doubled = K.imp_i(d.discharges[0], body, ante=ante)
            return K.imp_e(_dne(goal, t.position, target, alloc), doubled)
        if r in ("or-i1", "or-i2"):
            both = d.conclusion.formula
            pos = d.conclusion.position
            g_left, g_right = g_translate(both.left), g_translate(both.right)
            pair = K.hyp(u, And(neg(g_left), neg(g_right)), pos)
            project = K.and_e1 if r == "or-i1" else K.and_e2
            return K.imp_i(frozenset({u}), K.imp_e(project(pair), prems[0]))
        if r == "or-e":
            both = d.premises[0].conclusion.formula
            beta = d.premises[0].conclusion.position
            goal = g_translate(d.conclusion.formula)
            pos = d.conclusion.position
            left = _contrapose(
                prems[1],
                d.discharges[0],
                PFormula(g_translate(both.left), beta),
                u,
            )
            right = _contrapose(
                prems[2],
                d.discharges[1],
                PFormula(g_translate(both.right), beta),
                u,
            )
            bottom = _reposition(K.imp_e(prems[0], K.and_i(left, right)), pos)
            doubled = K.imp_i(
                frozenset({u}), bottom, ante=PFormula(neg(goal), pos)
            )
            return K.imp_e(_dne(goal, pos, target, alloc), doubled)
        if r == "dia-i":
            body_formula = g_translate(d.premises[0].conclusion.formula)
            pos = d.conclusion.position
            e = prems[1] if len(d.premises) == 2 else None
            opened = K.box_e(K.hyp(u, Box(neg(body_formula)), pos), d.beta, e)
            bottom = _reposition(K.imp_e(opened, prems[0]), pos)
            return K.imp_i(frozenset({u}), bottom)
        if r == "dia-e":
            witness = g_translate(d.premises[0].conclusion.formula.body)
            beta = d.premises[0].conclusion.position
            goal = g_translate(d.conclusion.formula)
            pos = d.conclusion.position
            minor = _contrapose(
                prems[1],
                d.discharges[0],
                PFormula(witness, beta + (d.token,)),
                u,
            )
            boxed = K.box_i(d.token, d.e_discharges, minor)
            bottom = _reposition(K.imp_e(prems[0], boxed), pos)
            doubled = K.imp_i(
                frozenset({u}), bottom, ante=PFormula(neg(goal), pos)
            )
            return K.imp_e(_dne(goal, pos, target, alloc), doubled)
        raise ValueError(f"unknown rule: {r}")  # pragma: no cover

    return K._walk(d, enter, leave)


# --- labelled sequent-calculus sketches -------------------------------------


def position_label(alpha: Position) -> str:
    """World label for a position: tokens joined under a ``w_`` stem."""
    return "w_" + "_".join(alpha)


def pos_to_relational(alpha: Position) -> tuple[tuple[str, str], ...]:
    """Accessibility chain through every proper prefix of ``alpha``."""
    alpha = tuple(alpha)
    return tuple(
        (position_label(alpha[:i]), position_label(alpha[: i + 1]))
        for i in range(len(alpha))
    )


@dataclass(frozen=True)
class LabelledSequent:
    """One labelled sequent: labelled formulas and relational atoms on
    the left, a single labelled formula on the right."""

    formulas: frozenset[tuple[str, Formula]]
    relations: frozenset[tuple[str, str]]
    right: tuple[str, Formula]


@dataclass(frozen=True)
class LabelledStep:
    """One rule application in a labelled proof sketch."""

    rule: str
    premises: tuple["LabelledStep", ...]
    sequent: LabelledSequent


@dataclass(frozen=True)
class LabelledProofSketch:
    """A labelled rendering of a checking derivation.

    This is a sketch, not a checked object: the structural-rule
    placement is a heuristic driven by recorded step lengths, and no
    labelled-side checker validates the result.
    """

    root: LabelledStep
    mode: str  # "total" | "partial"
    note: str = "sketch: structural-rule placement is heuristic"


def judgment_to_labelled(gamma, target: PFormula, mode: str) -> LabelledSequent:
    """Translate a judgment into a labelled sequent.

    In total mode every assumption position and the conclusion position
    contribute their full accessibility chains; existence assumptions
    are not allowed.  In partial mode no chains are generated: each
    existence assumption contributes exactly the single relational atom
    for its last step.
    """
    if mode not in ("total", "partial"):
        raise ValueError(f"unknown mode: {mode!r}")
    formulas: set[tuple[str, Formula]] = set()
    relations: set[tuple[str, str]] = set()
    for content in gamma:
        if isinstance(content, EFormula):
            if mode == "total":
                raise ValueError("existence assumptions require partial mode")
            p = tuple(content.position)
            if p:
                relations.add((position_label(p[:-1]), position_label(p)))
        else:
            formulas.add((position_label(content.position), content.formula))
            if mode == "total":
                relations.update(pos_to_relational(content.position))
    if mode == "total":
        relations.update(pos_to_relational(target.position))
    return LabelledSequent(
        frozenset(formulas),
        frozenset(relations),
        (position_label(target.position), target.formula),
    )


_LABELLED_RULE = {
    "box-i": "box-i-l",
    "box-e": "box-e-l",
    "dia-i": "dia-i-l",
    "dia-e": "dia-e-l",
}


def _mediate(
    rule: str,
    children: tuple[LabelledStep, ...],
    jud: LabelledSequent,
    alpha: Position,
    beta: Position,
) -> LabelledStep:
    """Wrap a modal rule with the structural rules its recorded step needs.

    The core rule is rendered with the direct relational atom from the
    rule's source world to its target world; a zero-length step is then
    closed by reflexivity, a vanished one-step atom by seriality, and a
    longer step by a left-associated transitivity chain.
    """
    full = concat(alpha, beta)
    path = tuple(
        (
            position_label(concat(alpha, beta[:i])),
            position_label(concat(alpha, beta[: i + 1])),
        )
        for i in range(len(beta))
    )
    direct = (position_label(alpha), position_label(full))
    core_rels = (jud.relations - set(path)) | {direct}
    core = LabelledStep(
        rule,
        children,
        LabelledSequent(jud.formulas, frozenset(core_rels), jud.right),
    )
    if frozenset(core_rels) == jud.relations:
        return core
    if len(beta) == 0:
        return LabelledStep("refl", (core,), jud)
    if len(beta) == 1:
        return LabelledStep("ser", (core,), jud)
    base = jud.relations - set(path)
    cur = core
    for k in range(1, len(beta)):
        rels = (
            base
            | set(path[:k])
            | {(position_label(concat(alpha, beta[:k])), position_label(full))}
        )
        cur = LabelledStep(
            "trans",
            (cur,),
            LabelledSequent(jud.formulas, frozenset(rels), jud.right),
        )
    if cur.sequent.relations != jud.relations:
        cur = LabelledStep("ser", (cur,), jud)
    return cur


def _opens(d: Derivation, concl, below: list) -> frozenset:
    """The open ``(label, content)`` pairs of ``d``, which concludes
    ``concl``, from those of its premises: a discharge removes its labels
    whatever their kind, as :func:`posnd.kernel.check` does."""
    if d.rule in ("hyp", "ehyp"):
        return frozenset({(d.label, concl)})
    for slot, labels, _kind in K._scopes(d):
        below[slot] = frozenset(o for o in below[slot] if o[0] not in labels)
    return below[0].union(*below[1:]) if len(below) > 1 else below[0]


def derivation_to_labelled(d: Derivation, system: System) -> LabelledProofSketch:
    """Render a derivation as a labelled sequent-calculus proof sketch.

    Each node's open assumptions are gathered bottom-up in the same walk.
    Reserved tokens are renamed as the walk reads each position, by the map
    with which :func:`~posnd.kernel.print_proof` writes them
    (``kernel._token_map``), so world names do not depend on how the
    normalizer numbered its witnesses.
    """
    mode = "partial" if system.partial else "total"
    mapping = K._token_map(d)

    def image(c):
        if not mapping:
            return c
        pos = tuple(mapping.get(t, t) for t in c.position)
        return PFormula(c.formula, pos) if isinstance(c, PFormula) else EFormula(pos)

    def enter(n: Derivation, shown: bool):
        prems = [(p, shown) for p in n.premises]
        e = K._RULE_TABLE[n.rule].e_slot
        if mode == "partial" and e is not None and len(prems) > e:
            # existence premises feed the context, not the tree
            prems[e] = (n.premises[e], False)
        return prems, shown

    def leave(n: Derivation, below: list, shown: bool):
        concl = image(n.conclusion)
        opens = _opens(n, concl, [o for _step, o in below])
        if not shown:
            return None, opens
        if not isinstance(concl, PFormula):
            raise ValueError("existence conclusions have no labelled image")
        jud = judgment_to_labelled([c for _lab, c in opens], concl, mode)
        children = tuple(step for step, _o in below if step is not None)
        rule = _LABELLED_RULE.get(n.rule, n.rule)
        step_from = K._RULE_TABLE[n.rule].step_from
        if mode == "total" and step_from:
            start = image(n.premises[0].conclusion) if step_from == "premise" else concl
            beta = tuple(mapping.get(t, t) for t in n.beta)
            return _mediate(rule, children, jud, start.position, beta), opens
        return LabelledStep(rule, children, jud), opens

    return LabelledProofSketch(
        K._walk(d, enter, leave, True)[0], mode
    )


def print_labelled(sketch: LabelledProofSketch) -> str:
    """Deterministic one-line-per-step rendering, root first."""

    def fmt(seq: LabelledSequent) -> str:
        parts = sorted(
            f"{lab}:{print_formula(f)}" for lab, f in seq.formulas
        )
        parts += sorted(f"{a} R {b}" for a, b in seq.relations)
        right = f"{seq.right[0]}:{print_formula(seq.right[1])}"
        left = ", ".join(parts)
        return (left + " " if left else "") + "|- " + right

    lines = [f"labelled-sketch {sketch.mode}"]

    def enter(step: LabelledStep, depth: int):
        lines.append("  " * (depth + 1) + fmt(step.sequent) + f"  [{step.rule}]")
        return [(p, depth + 1) for p in step.premises], None

    K._walk(sketch.root, enter, lambda *_: None, 0)
    return "\n".join(lines) + "\n"
