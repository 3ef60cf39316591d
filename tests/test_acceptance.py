"""End-to-end acceptance suite: nine criteria, one test and one verdict
line each.

Each criterion prints ``ACCEPTANCE <n>: PASS/FAIL`` (collected in
``acceptance_report.txt`` next to the test output) with the measured
runtime; the stated time limits are asserted inside the tests.  The
criteria are exercised against frozen bounds; where a criterion leaves a
search space open, the frozen interpretation is stated in the test's
docstring and the decision log.
"""

from __future__ import annotations

import itertools
import random
import time
from contextlib import contextmanager
from pathlib import Path

from posnd import kernel as K
from posnd import normalizer as N
from posnd import semantics as S
from posnd import translate as T
from posnd.syntax import (
    And,
    Atom,
    Bottom,
    Box,
    Dia,
    EFormula,
    Imp,
    Or,
    PFormula,
    concat,
    init_set,
)

import test_normalizer as TN

P = Atom("p")
BOT = Bottom()
LOGICS = ("k", "d", "t", "k4", "d4", "s4")
TOTAL_LOGICS = ("d", "t", "d4", "s4")
PARTIAL = ("k", "k4")

_REPORT_PATH = Path(__file__).resolve().parent.parent / "acceptance_report.txt"
# The first verdict of a test run empties the report, so a run that only
# collects this module or deselects its tests keeps the recorded one.
_report_started = False


def _emit(line: str) -> None:
    global _report_started
    print(line)
    with _REPORT_PATH.open("a" if _report_started else "w") as fh:
        fh.write(line + "\n")
    _report_started = True


@contextmanager
def criterion(num: int, limit: float | None = None):
    t0 = time.time()
    info = {"detail": ""}
    try:
        yield info
        elapsed = time.time() - t0
        if limit is not None and elapsed >= limit:
            raise AssertionError(
                f"time limit {limit:.0f}s exceeded: {elapsed:.1f}s"
            )
    except BaseException:
        _emit(f"ACCEPTANCE {num}: FAIL [{time.time() - t0:.1f}s]")
        raise
    _emit(f"ACCEPTANCE {num}: PASS — {info['detail']} [{elapsed:.1f}s]")


# --- shared formula machinery ----------------------------------------------


def depth(f) -> int:
    if isinstance(f, (Atom, Bottom)):
        return 0
    if isinstance(f, (Box, Dia)):
        return 1 + depth(f.body)
    return 1 + max(depth(f.left), depth(f.right))


def formula_universe(maxdepth: int) -> list:
    """Every formula over {p, bottom} of the given maximum depth."""
    seen = {P, BOT}
    for _ in range(maxdepth):
        prev = list(seen)
        for f in prev:
            for g in (Box(f), Dia(f)):
                if depth(g) <= maxdepth:
                    seen.add(g)
        for a, b in itertools.product(prev, prev):
            for g in (And(a, b), Or(a, b), Imp(a, b)):
                if depth(g) <= maxdepth:
                    seen.add(g)
    return sorted(seen, key=lambda f: (depth(f), repr(f)))


U2 = formula_universe(2)
U1 = [f for f in U2 if depth(f) <= 1]

# The per-logic step-length discipline, restated here so the expectations
# below do not lean on the kernel's own table.
BETA_OK = {
    "k": lambda n: n == 1,
    "d": lambda n: n == 1,
    "t": lambda n: n <= 1,
    "k4": lambda n: n >= 1,
    "d4": lambda n: n >= 1,
    "s4": lambda n: True,
}


# --- criterion 1: builtin corpus checks positive ---------------------------


EXPECTED_PAIRS = frozenset(
    [("dia-dual", lg) for lg in LOGICS]
    + [("k", lg) for lg in LOGICS]
    + [("t", lg) for lg in ("t", "s4")]
    + [("d", lg) for lg in ("d", "d4", "s4")]
    + [("four", lg) for lg in ("k4", "d4", "s4")]
)


class TestCriterion1:
    def test_builtin_corpus_positive(self):
        with criterion(1, limit=1.0) as info:
            assert frozenset(K.BUILTIN_PAIRS) == EXPECTED_PAIRS
            for axiom, logic in sorted(K.BUILTIN_PAIRS):
                d, system = K.builtin(axiom, logic)
                report = K.check(d, system)
                assert report.ok, (axiom, logic, report.violations)
                assert report.violations == ()
                assert report.open_assumptions == ()
            info["detail"] = f"{len(K.BUILTIN_PAIRS)} builtin pairs check closed"


# --- criterion 2: cross-logic rejection matrix -----------------------------


def _beta_lengths(d: K.Derivation) -> list[int]:
    return [len(n.beta) for n in d if n.rule in ("box-e", "dia-i")]


class TestCriterion2:
    def test_constraint_table_matrix(self):
        """Re-check every builtin under every logic.

        Expected acceptance: the existence discipline must match (partial
        proofs carry existence premises that total systems refuse, and
        vice versa) and every recorded box-e/dia-i step length must pass
        the target logic's discipline.  Every rejection must name a
        box-e or dia-i violation; rejections predicted by the step-length
        table must name it as a step constraint.
        """
        with criterion(2, limit=1.0) as info:
            cells = rejected = 0
            for axiom, logic in sorted(K.BUILTIN_PAIRS):
                d, system = K.builtin(axiom, logic)
                betas = _beta_lengths(d)
                for lg in LOGICS:
                    report = K.check(d, K.System(lg, system.flavor))
                    same_discipline = (lg in PARTIAL) == (logic in PARTIAL)
                    beta_pass = all(BETA_OK[lg](n) for n in betas)
                    expected = same_discipline and beta_pass
                    assert report.ok == expected, (axiom, logic, lg)
                    cells += 1
                    if not report.ok:
                        rejected += 1
                        assert any(
                            v.rule in ("box-e", "dia-i")
                            for v in report.violations
                        ), (axiom, logic, lg)
                    if not beta_pass:
                        assert any(
                            v.rule in ("box-e", "dia-i")
                            and "step constraint" in v.message
                            for v in report.violations
                        ), (axiom, logic, lg)
            # The two named rows of the expected matrix.
            for logic in ("t", "s4"):
                d, system = K.builtin("t", logic)
                for lg in ("k", "d", "k4", "d4"):
                    assert not K.check(d, K.System(lg, system.flavor)).ok
            for logic in ("k4", "d4", "s4"):
                d, system = K.builtin("four", logic)
                for lg in ("k", "d", "t"):
                    assert not K.check(d, K.System(lg, system.flavor)).ok
            info["detail"] = (
                f"{cells} cells match the step-length prediction "
                f"({rejected} rejections, each naming box-e/dia-i)"
            )


# --- criterion 3: bounded soundness ----------------------------------------


class TestCriterion3:
    def test_bounded_soundness_and_refutations(self):
        with criterion(3, limit=300.0) as info:
            b = S.Bounds(3, 2, 1)
            for axiom, logic in sorted(K.BUILTIN_PAIRS):
                d, system = K.builtin(axiom, logic)
                assert S.soundness_probe(d, system, b) is True, (axiom, logic)

            unboxing = PFormula(Imp(Box(P), P), ())
            assert S.consequence_probe([], unboxing, "k", b) is False
            witness = S.find_countermodel([], unboxing, "k", b)
            assert witness is not None
            m1, rho1 = witness
            assert S.validate_model(m1, "k")
            assert S.validate_evaluation(rho1, m1, "k")
            assert S.sat(m1, "k", rho1, unboxing) is False

            idem = PFormula(Imp(Box(P), Box(Box(P))), ())
            assert S.consequence_probe([], idem, "t", b) is False
            witness = S.find_countermodel([], idem, "t", b)
            assert witness is not None
            m2, rho2 = witness
            assert S.validate_model(m2, "t")
            assert S.sat(m2, "t", rho2, idem) is False
            info["detail"] = (
                f"20 probes pass at depth 3; refutations carry "
                f"countermodels of {len(m1.nodes)} and {len(m2.nodes)} worlds"
            )


# --- criterion 4: normalization fixtures -----------------------------------


_NORMALIZED: list[tuple[str, K.Derivation, K.Derivation, list, K.System]] = []


def _normalized_corpus():
    if not _NORMALIZED:
        for name, build, system, _ in TN.FIXTURES:
            d = build()
            nf, trace = N.normalize(d, system)
            _NORMALIZED.append((name, d, nf, trace, system))
    return _NORMALIZED


FIGURES = {
    "propositional": {"and-e1", "and-e2", "or-i1", "or-i2", "imp"},
    "commutative": {"commut-or", "commut-dia"},
    "total-modal": {"total-box", "total-dia"},
    "partial-modal": {"partial-box", "partial-dia"},
}


class TestCriterion4:
    def test_normalization_terminates_with_decreasing_traces(self):
        with criterion(4, limit=10.0) as info:
            names = {name for name, *_ in TN.FIXTURES}
            for family, members in FIGURES.items():
                assert members <= names, family
            for name, _, nf, trace, system in _normalized_corpus():
                assert trace, name
                for a, b in zip(trace, trace[1:]):
                    assert a > b, (name, trace)
                assert trace[-1] == (0, 0), (name, trace)
                assert N.is_normal(nf), name
                report = K.check(nf, system)
                assert report.ok, (name, report.violations)
            info["detail"] = (
                f"{len(_normalized_corpus())} fixtures normalize with "
                f"strictly falling traces ending (0,0)"
            )


# --- criterion 5: bounded consistency --------------------------------------


POSITIONS = [(), ("x",), ("x", "x"), ("x", "x", "x")]
TOKEN = "x"


def _splits2(total):
    return [(a, total - a) for a in range(1, total)]


def _splits3(total):
    return [
        (a, b, total - a - b)
        for a in range(1, total - 1)
        for b in range(1, total - a)
    ]


class _Backward:
    """Enumerate candidate derivations of a goal within a node budget.

    The search over-generates: every rule is applied backwards with every
    in-bounds parameter choice (formulas from the depth-2 universe,
    positions up to length 3 over the single token, step suffixes up to
    length 2) and the kernel checker is the sole arbiter of which
    candidates count.  Shapes that can never be part of a normal
    derivation (an elimination whose major premise introduces the same
    connective, or a repositioning step stacked on another) are skipped;
    a stacked repositioning of absurdity is subsumed by the search on the
    inner goal position.
    """

    def __init__(self, partial: bool):
        self.partial = partial
        self.states = 0

    def derive(self, goal, gamma, budget, nlab):
        self.states += 1
        C, gpos = goal.formula, goal.position
        for content, lab in gamma:
            if isinstance(content, PFormula) and content == goal:
                yield K.hyp(lab, C, gpos), nlab
        if budget == 1:
            return
        yield from self._intros(goal, gamma, budget, nlab)
        yield from self._elims(goal, gamma, budget, nlab)

    def _intros(self, goal, gamma, budget, nlab):
        C, gpos = goal.formula, goal.position
        if isinstance(C, Imp):
            lab = f"h{nlab}"
            ante = PFormula(C.left, gpos)
            for prem, n2 in self.derive(
                PFormula(C.right, gpos), gamma + ((ante, lab),),
                budget - 1, nlab + 1,
            ):
                yield K.imp_i(frozenset({lab}), prem, ante=ante), n2
        elif isinstance(C, And):
            for b1, b2 in _splits2(budget - 1):
                for l, n2 in self.derive(PFormula(C.left, gpos), gamma, b1, nlab):
                    for r, n3 in self.derive(
                        PFormula(C.right, gpos), gamma, b2, n2
                    ):
                        yield K.and_i(l, r), n3
        elif isinstance(C, Or):
            for prem, n2 in self.derive(
                PFormula(C.left, gpos), gamma, budget - 1, nlab
            ):
                yield K.or_i1(C.right, prem), n2
            for prem, n2 in self.derive(
                PFormula(C.right, gpos), gamma, budget - 1, nlab
            ):
                yield K.or_i2(C.left, prem), n2
        elif isinstance(C, Box):
            npos = gpos + (TOKEN,)
            if len(npos) <= 3:
                if self.partial:
                    lab = f"e{nlab}"
                    g2 = gamma + ((EFormula(npos), lab),)
                    for prem, n2 in self.derive(
                        PFormula(C.body, npos), g2, budget - 1, nlab + 1
                    ):
                        yield K.box_i(TOKEN, frozenset({lab}), prem), n2
                else:
                    for prem, n2 in self.derive(
                        PFormula(C.body, npos), gamma, budget - 1, nlab
                    ):
                        yield K.box_i(TOKEN, frozenset(), prem), n2
        elif isinstance(C, Dia):
            for blen in range(0, 3):
                beta = (TOKEN,) * blen
                npos = gpos + beta
                if len(npos) > 3:
                    continue
                if self.partial:
                    if budget < 3:
                        continue
                    for content, lab in gamma:
                        if content == EFormula(npos):
                            for prem, n2 in self.derive(
                                PFormula(C.body, npos), gamma, budget - 2, nlab
                            ):
                                yield K.dia_i(beta, prem, K.ehyp(lab, npos)), n2
                else:
                    for prem, n2 in self.derive(
                        PFormula(C.body, npos), gamma, budget - 1, nlab
                    ):
                        yield K.dia_i(beta, prem), n2

    def _elims(self, goal, gamma, budget, nlab):
        C, gpos = goal.formula, goal.position
        if depth(C) <= 1:
            # conjunction/implication/necessity eliminations need a major
            # premise inside the depth-2 universe
            for y in U1:
                for maj, n2 in self.derive(
                    PFormula(And(C, y), gpos), gamma, budget - 1, nlab
                ):
                    if maj.rule != "and-i":
                        yield K.and_e1(maj), n2
                for maj, n2 in self.derive(
                    PFormula(And(y, C), gpos), gamma, budget - 1, nlab
                ):
                    if maj.rule != "and-i":
                        yield K.and_e2(maj), n2
            for x in U1:
                for b1, b2 in _splits2(budget - 1):
                    for maj, n2 in self.derive(
                        PFormula(Imp(x, C), gpos), gamma, b1, nlab
                    ):
                        if maj.rule == "imp-i":
                            continue
                        for minor, n3 in self.derive(
                            PFormula(x, gpos), gamma, b2, n2
                        ):
                            yield K.imp_e(maj, minor), n3
            for blen in range(0, min(2, len(gpos)) + 1):
                beta = gpos[len(gpos) - blen:]
                dpos = gpos[: len(gpos) - blen]
                need = 2 if self.partial else 1
                if budget - need < 1:
                    continue
                for maj, n2 in self.derive(
                    PFormula(Box(C), dpos), gamma, budget - need, nlab
                ):
                    if maj.rule == "box-i":
                        continue
                    if self.partial:
                        for content, lab in gamma:
                            if content == EFormula(gpos):
                                yield K.box_e(maj, beta, K.ehyp(lab, gpos)), n2
                    else:
                        yield K.box_e(maj, beta), n2
        # possibility/disjunction eliminations and absurdity repositioning
        # apply at any goal depth
        for x in U1:
            for dpos in POSITIONS:
                wpos = dpos + (TOKEN,)
                if len(wpos) > 3:
                    continue
                for b1, b2 in _splits2(budget - 1):
                    for maj, n2 in self.derive(
                        PFormula(Dia(x), dpos), gamma, b1, nlab
                    ):
                        if maj.rule == "dia-i":
                            continue
                        lab = f"h{n2}"
                        g2 = ((PFormula(x, wpos), lab),)
                        elab = None
                        if self.partial:
                            elab = f"e{n2}"
                            g2 = g2 + ((EFormula(wpos), elab),)
                        for minor, n3 in self.derive(goal, gamma + g2, b2, n2 + 1):
                            yield K.dia_e(
                                maj,
                                TOKEN,
                                frozenset({lab}),
                                frozenset({elab}) if elab else frozenset(),
                                minor,
                            ), n3
        for x, y in itertools.product(U1, U1):
            for dpos in POSITIONS:
                for b1, b2, b3 in _splits3(budget - 1):
                    for maj, n2 in self.derive(
                        PFormula(Or(x, y), dpos), gamma, b1, nlab
                    ):
                        if maj.rule in ("or-i1", "or-i2"):
                            continue
                        l1, l2 = f"h{n2}", f"h{n2 + 1}"
                        for m1, n3 in self.derive(
                            goal, gamma + ((PFormula(x, dpos), l1),), b2, n2 + 2
                        ):
                            for m2, n4 in self.derive(
                                goal, gamma + ((PFormula(y, dpos), l2),), b3, n3
                            ):
                                yield K.or_e(
                                    maj, frozenset({l1}), m1, frozenset({l2}), m2
                                ), n4
        if isinstance(C, (Atom, Bottom)):
            for dpos in POSITIONS:
                if isinstance(C, Bottom) and dpos == gpos:
                    continue
                for prem, n2 in self.derive(
                    PFormula(BOT, dpos), gamma, budget - 1, nlab
                ):
                    if prem.rule == "bot-i":
                        continue
                    yield K.bot_i(prem, C, gpos), n2


def _closed_search(goal, logic, budget=5, stop_at_first=False):
    system = K.System(logic, "intuitionistic")
    gen = _Backward(system.partial)
    found = []
    for cand, _ in gen.derive(goal, (), budget, 1):
        assert sum(1 for _ in cand) <= budget
        report = K.check(cand, system)
        if report.ok and not report.open_assumptions:
            found.append(cand)
            if stop_at_first:
                break
    return found, gen.states


class TestCriterion5:
    def test_bounded_consistency(self):
        """No closed derivation of absurdity within the frozen bounds.

        Frozen interpretation: formulas over {p, bottom} of depth <= 2,
        positions up to length 3 over the single token, step suffixes up
        to length 2, at most 5 rule nodes.  The backward search
        over-generates and the kernel filters, so the claim covers every
        normal derivation in bounds (the skipped shapes cannot occur in
        one); positive controls confirm the search finds theorems.
        """
        with criterion(5, limit=600.0) as info:
            states = 0
            for logic in LOGICS:
                for pos in POSITIONS:
                    found, n = _closed_search(PFormula(BOT, pos), logic)
                    states += n
                    assert not found, (logic, pos, found)
                assert n > 10_000  # evidence the space was actually walked

            controls = 0
            for logic in LOGICS:
                for target in (
                    PFormula(Imp(P, P), ()),
                    PFormula(Imp(BOT, P), ()),
                    PFormula(Box(Imp(P, P)), ()),
                ):
                    found, _ = _closed_search(target, logic, stop_at_first=True)
                    assert found, (logic, target)
                    controls += 1
            found, _ = _closed_search(
                PFormula(Imp(Box(P), Dia(P)), ()), "d", stop_at_first=True
            )
            assert found
            controls += 1
            for logic in ("d4", "s4"):
                found, _ = _closed_search(
                    PFormula(Imp(Box(P), Box(Box(P))), ()),
                    logic,
                    stop_at_first=True,
                )
                assert found, logic
                controls += 1
            info["detail"] = (
                f"no closed absurdity in {states} searched states across "
                f"6 logics x 4 positions; {controls} positive controls found"
            )


# --- criterion 6: spine structure ------------------------------------------


class TestCriterion6:
    def test_spines_of_normalized_corpus(self):
        with criterion(6) as info:
            inspected = 0
            corpus = [
                (name, nf) for name, _, nf, _, _ in _normalized_corpus()
            ] + [
                (f"random-{i}", N.normalize(d, system)[0])
                for i, (d, system) in enumerate(
                    TN.random_corpus(20260822, per_system=4, steps=8)
                )
            ]
            for name, nf in corpus:
                if nf.rule in K.INTRO_RULES:
                    continue
                spines = N.all_spines(nf)
                assert len(spines) == 1, name
                assert N.spine(nf) == spines[0], name
                elim, minimum, intro = N.spine_decompose(nf)
                assert intro == (), (name, intro)
                assert elim + minimum == spines[0], name
                inspected += 1
            assert inspected >= 5
            info["detail"] = (
                f"{inspected} non-introduction normal forms have a unique "
                f"spine with empty introduction part"
            )


# --- criterion 7: classical-to-intuitionistic translation -------------------


class TestCriterion7:
    def test_translation_of_builtins(self):
        with criterion(7, limit=5.0) as info:
            for axiom, logic in sorted(K.BUILTIN_PAIRS):
                d, system = K.builtin(axiom, logic)
                assert system.flavor == "classical"
                out = T.classical_to_intuitionistic(d, system)
                report = K.check(out, K.System(logic, "intuitionistic"))
                assert report.ok, (axiom, logic, report.violations)
                assert report.open_assumptions == ()
                assert out.conclusion == PFormula(
                    T.g_translate(d.conclusion.formula), ()
                ), (axiom, logic)
                if axiom == "dia-dual":
                    rules = {n.rule for n in d}
                    assert "bot-c" in rules and "dia-e" in rules
            info["detail"] = (
                "all 20 builtins translate to checking intuitionistic "
                "derivations of the translated conclusion"
            )


# --- criterion 8: labelled export ------------------------------------------


EXPECTED_SKELETONS = {
    ("four", "s4"): (
        "imp-i",
        ("box-i-l", ("box-i-l", ("trans", ("box-e-l", ("hyp",))))),
    ),
    ("t", "t"): ("imp-i", ("refl", ("box-e-l", ("hyp",)))),
    ("k", "k"): (
        "imp-i",
        (
            "imp-i",
            ("box-i-l", ("imp-e", ("box-e-l", ("hyp",)), ("box-e-l", ("hyp",)))),
        ),
    ),
    ("d", "d"): ("imp-i", ("ser", ("dia-i-l", ("box-e-l", ("hyp",))))),
}


def _skeleton(step):
    return (step.rule,) + tuple(_skeleton(p) for p in step.premises)


class TestCriterion8:
    def test_labelled_export_structure(self):
        with criterion(8) as info:
            for (axiom, logic), expected in sorted(EXPECTED_SKELETONS.items()):
                d, system = K.builtin(axiom, logic)
                sketch = T.derivation_to_labelled(d, system)
                assert _skeleton(sketch.root) == expected, (axiom, logic)
                assert sketch.mode == (
                    "partial" if logic in PARTIAL else "total"
                )
            info["detail"] = (
                "exports of four/s4, t/t, k/k (and d/d) reproduce the "
                "expected trees: rule names, arities, and relational-rule "
                "placement"
            )


# --- criterion 9: bounded semantic lemmas ----------------------------------


REF_STEP_REFL = {"t": True, "s4": True, "k": False, "d": False, "k4": False, "d4": False}
REF_STEP_TRANS = {"k4": True, "d4": True, "s4": True, "k": False, "d": False, "t": False}


def _is_chain(m, w):
    return w not in m.nodes


def _chain_leaf(m, w):
    v = w
    while v not in m.nodes:
        v = v[:-1]
    return v


def _target_maps(m, logic):
    """For every real node: its real successor set and the set of leaves
    whose completion chain it can also step to — a second, independent
    reading of the per-logic step discipline."""
    nodes = sorted(m.nodes, key=lambda n: (len(n), n))
    leaves = [
        n
        for n in nodes
        if not any(len(c) == len(n) + 1 and c[: len(n)] == n for c in m.nodes)
    ]
    rt, ct = {}, {}
    for s in nodes:
        kids = [n for n in nodes if len(n) == len(s) + 1 and n[: len(s)] == s]
        if REF_STEP_TRANS[logic]:
            below = [n for n in nodes if len(n) > len(s) and n[: len(s)] == s]
        else:
            below = kids
        real = list(below)
        chain = []
        if m.serial_completion:
            if REF_STEP_TRANS[logic]:
                chain = [l for l in [s] + below if l in leaves]
            elif not kids:
                chain = [s]
        if REF_STEP_REFL[logic]:
            real = [s] + real
        rt[s] = frozenset(real)
        ct[s] = frozenset(chain)
    return nodes, leaves, rt, ct


def _ref_tables(m, logic, formulas):
    """Truth of every formula at every real node and along every leaf
    chain, computed from scratch against the independent step reading."""
    nodes, leaves, rt, ct = _target_maps(m, logic)
    allnodes = frozenset(nodes)
    allleaves = frozenset(leaves)
    node_t, chain_t = {}, {}
    for f in formulas:
        if isinstance(f, Atom):
            node_t[f] = frozenset(n for n in nodes if f.name in m.atoms_at(n))
            chain_t[f] = frozenset(l for l in leaves if f.name in m.atoms_at(l))
        elif isinstance(f, Bottom):
            node_t[f] = frozenset()
            chain_t[f] = frozenset()
        elif isinstance(f, And):
            node_t[f] = node_t[f.left] & node_t[f.right]
            chain_t[f] = chain_t[f.left] & chain_t[f.right]
        elif isinstance(f, Or):
            node_t[f] = node_t[f.left] | node_t[f.right]
            chain_t[f] = chain_t[f.left] | chain_t[f.right]
        elif isinstance(f, Imp):
            node_t[f] = (allnodes - node_t[f.left]) | node_t[f.right]
            chain_t[f] = (allleaves - chain_t[f.left]) | chain_t[f.right]
        elif isinstance(f, Box):
            bn, bc = node_t[f.body], chain_t[f.body]
            node_t[f] = frozenset(
                n for n in nodes if rt[n] <= bn and ct[n] <= bc
            )
            chain_t[f] = bc
        elif isinstance(f, Dia):
            bn, bc = node_t[f.body], chain_t[f.body]
            node_t[f] = frozenset(
                n for n in nodes if (rt[n] & bn) or (ct[n] & bc)
            )
            chain_t[f] = bc
        else:
            raise TypeError(f)
    return node_t, chain_t, rt, ct


def _subkey(m, w):
    """Canonical form of the generated submodel at a world; modal truth
    there depends on nothing else, so it deduplicates the heavy check."""
    if _is_chain(m, w):
        return ("chain", frozenset(m.atoms_at(_chain_leaf(m, w))))
    below = sorted(
        (n[len(w):], frozenset(m.atoms_at(n)))
        for n in m.nodes
        if n[: len(w)] == w
    )
    return (m.serial_completion,) + tuple(below)


def _sub1_for_logic(logic):
    checked = set()
    pairs = proforma = 0
    bounds = S.Bounds(2, 2, 1)
    for m in S.enumerate_models(bounds, logic):
        tables = None
        for rho in S.enumerate_evaluations(m, [(), ("x",)], logic):
            for alpha in sorted(rho.entries):
                w = rho.entries[alpha]
                pairs += 1
                key = _subkey(m, w)
                if key in checked:
                    continue
                checked.add(key)
                if tables is None:
                    tables = _ref_tables(m, logic, U2)
                node_t, chain_t, rt, ct = tables
                if _is_chain(m, w):
                    leaf = _chain_leaf(m, w)
                    def want_box(f):
                        return leaf in chain_t[f]
                    want_dia = want_box
                else:
                    def want_box(f):
                        return rt[w] <= node_t[f] and ct[w] <= chain_t[f]
                    def want_dia(f):
                        return bool((rt[w] & node_t[f]) or (ct[w] & chain_t[f]))
                for f in U2:
                    got_box = S.holds(m, logic, w, Box(f))
                    got_dia = S.holds(m, logic, w, Dia(f))
                    assert got_box == want_box(f), (logic, m, w, f)
                    assert got_dia == want_dia(f), (logic, m, w, f)
                    if proforma < 3:
                        # the evaluation layer reduces to the same world
                        assert (
                            S.sat(m, logic, rho, PFormula(Box(f), alpha))
                            == got_box
                        )
                        proforma += 1
    return pairs, len(checked)


def _diff1_for_logic(logic):
    positions = sorted(init_set([("x", "y")]), key=lambda p: (len(p), p))
    point_pairs = [((), ("x", "y")), ((), ("x",)), (("x",), ("x", "y"))]
    checked = set()
    seen_pairs = 0
    bounds = S.Bounds(2, 2, 1)
    for m in S.enumerate_models(bounds, logic):
        for rho in S.enumerate_evaluations(m, positions, logic):
            for alpha, alphabeta in point_pairs:
                va, vb = rho.entries[alpha], rho.entries[alphabeta]
                seen_pairs += 1
                shortcut = concat(va, S.node_subtract(vb, va))
                assert shortcut == vb, (logic, m, alpha, alphabeta)
                key = _subkey(m, vb)
                if key in checked:
                    continue
                checked.add(key)
                fresh = alpha + ("z",)
                extended = S.Evaluation(
                    {**rho.entries, fresh: shortcut},
                    partial_allowed=rho.partial_allowed,
                )
                for f in U2:
                    long_way = S.sat(m, logic, rho, PFormula(f, alphabeta))
                    short_way = S.sat(m, logic, extended, PFormula(f, fresh))
                    assert long_way == short_way, (logic, m, alphabeta, f)
    return seen_pairs, len(checked)


def _entails(m, gamma, target, logic, positions):
    for rho in S.enumerate_evaluations(m, positions, logic):
        if all(S.sat_left(m, logic, rho, c) for c in gamma):
            if not S.sat_right(m, logic, rho, target):
                return False
    return True


def _existence_elimination(instances=50, seed=20260822):
    rng = random.Random(seed)
    pool = U1 + [Box(P), Dia(P), Imp(Box(P), P), And(Box(P), P)]
    bounds = S.Bounds(2, 2, 1)
    run = 0
    for i in range(instances):
        logic = PARTIAL[i % 2]
        alpha = rng.choice([(), ("x",)])
        gamma = []
        for _ in range(rng.randrange(3)):
            if rng.random() < 0.2:
                gamma.append(EFormula(("x",)))
            else:
                gamma.append(
                    PFormula(rng.choice(pool), rng.choice([(), ("x",)]))
                )
        target = PFormula(Box(rng.choice(U1)), alpha)
        fresh = alpha + ("y",)
        gamma_pos = [c.position for c in gamma]
        assert fresh not in init_set(gamma_pos + [alpha])
        positions = sorted(
            init_set(gamma_pos + [alpha, fresh]), key=lambda p: (len(p), p)
        )
        for m in S.enumerate_models(bounds, logic):
            with_e = _entails(m, gamma + [EFormula(fresh)], target, logic, positions)
            if with_e and not _entails(m, gamma, target, logic, positions):
                raise AssertionError((logic, m, gamma, target))
        run += 1
    return run


class TestCriterion9:
    def test_bounded_semantic_lemmas(self):
        """One-point extensions, long-step collapse, and existence
        discharge, at depth/branching 2 with one atom and formulas of
        depth <= 2, against an independent statement of the step
        relations."""
        with criterion(9, limit=300.0) as info:
            sub1_pairs = 0
            for logic in LOGICS:
                pairs, keys = _sub1_for_logic(logic)
                sub1_pairs += pairs
                assert keys >= 722, (logic, keys)
            diff1_pairs = 0
            # reflexive steps let the long position sit anywhere (full
            # submodel variety); without them it is always strictly below
            # the base point, so far fewer shapes are reachable there
            diff1_floor = {"d": 20, "t": 700, "d4": 20, "s4": 700}
            for logic in TOTAL_LOGICS:
                pairs, keys = _diff1_for_logic(logic)
                diff1_pairs += pairs
                assert keys >= diff1_floor[logic], (logic, keys)
            ran = _existence_elimination()
            assert ran == 50
            info["detail"] = (
                f"one-point extension over {sub1_pairs} evaluation points, "
                f"long-step collapse over {diff1_pairs}, existence "
                f"discharge on {ran} randomized instances"
            )
