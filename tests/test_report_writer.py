"""``print_check_report`` against a frozen copy of the list writer it replaced.

The reference builds the report as nested lists, a position by
``_pos_form`` and a formula by ``_formula_form``, and renders them with
the frozen list writer's ``dump``.  ``print_check_report`` now writes text
in one pass and writes each distinct formula object once per call.  Both
must give the same text, or raise the same error, on the reports of random
derivations and their mutants in every system, of check-stream proof files
(whose reader shares repeated formulas), and on empty reports, existence
assumptions, violation messages with quotes, backslashes and newlines, atom
names that do not read back bare, and formulas shared by many assumptions or
held as distinct equal objects.
"""

from __future__ import annotations

import random
import sys
from pathlib import Path

import pytest

import proofgen
from list_reader import dump
from posnd import kernel as K
from posnd._sexpr import ParseError, QStr
from posnd.syntax import And, Atom, Box, Dia, EFormula, Imp, Or, PFormula
from test_check_oracle import SYSTEMS, _extend, _mutate

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

import inputs as I  # noqa: E402

S4 = K.System("s4", "classical")
P, Q = Atom("p"), Atom("q")

# --- frozen copy of the list writer -------------------------------------------


def _pos_form(p) -> list:
    return list(p)


def reference_print_check_report(report: K.CheckReport) -> str:
    opens = report.open_assumptions
    K._written("label", [a.label for a in opens])
    K._written("token", [t for a in opens for t in a.content.position])
    viol_forms = [
        ["violation", ":path", list(v.path), ":rule", v.rule, ":condition", QStr(v.message)]
        for v in report.violations
    ]
    open_forms = [
        ["open", ":label", a.label, ":exists", _pos_form(a.content.position)]
        if isinstance(a.content, EFormula)
        else ["open", ":label", a.label, ":formula", K._formula_form(a.content.formula),
              ":position", _pos_form(a.content.position)]
        for a in opens
    ]
    form = ["check-report", ":ok", report.ok, ":violations", viol_forms, ":open", open_forms]
    return dump(form) + "\n"


# --- helpers ------------------------------------------------------------------


def outcome(write, report):
    try:
        return write(report)
    except (ParseError, ValueError, TypeError) as e:
        return type(e), str(e)


def assert_same(report):
    got = outcome(K.print_check_report, report)
    assert got == outcome(reference_print_check_report, report)
    return got


def _report(opens, violations=()):
    return K.CheckReport(not violations, tuple(violations), tuple(opens))


# --- tests --------------------------------------------------------------------


@pytest.mark.parametrize("system", SYSTEMS, ids=lambda s: f"{s.logic}-{s.flavor}")
def test_reports_of_random_derivations_and_mutants(system):
    rng = random.Random(f"report-{system.logic}-{system.flavor}")
    seen_bad = 0
    for _ in range(20):
        d = proofgen.random_derivation(rng, system, steps=14)
        for tree in (d, _mutate(rng, d), _extend(rng, _mutate(rng, d))):
            for other in (system, rng.choice(SYSTEMS)):
                report = K.check(tree, other)
                seen_bad += not report.ok
                assert isinstance(assert_same(report), str)
    assert seen_bad > 0


def test_reports_of_check_stream_proof_files():
    items = I.check_stream(1, blocks=1)
    for item in items:
        d, system = K.parse_proof(item.text)
        assert_same(K.check(d, system))


def test_empty_reports():
    assert assert_same(_report(())) == "(check-report :ok true :violations () :open ())\n"
    d, _ = K.builtin("k", "s4")
    assert assert_same(K.check(d, S4)).endswith(":open ())\n")


def test_existence_assumptions():
    for axiom in ("k", "four", "dia-dual"):
        d, _ = K.builtin(axiom, "k4")
        for logic in ("k", "k4", "s4"):
            assert_same(K.check(d, K.System(logic)))
    opens = [
        K.Assumption("e", EFormula(())),
        K.Assumption("e2", EFormula(("a", "b"))),
        K.Assumption("u", PFormula(P, ("a",))),
    ]
    text = assert_same(_report(opens))
    assert "(open :label e :exists ())" in text
    assert "(open :label e2 :exists (a b))" in text


def test_violation_messages_are_quoted():
    violations = [
        K.Violation((), "hyp", 'say "no"'),
        K.Violation((0, 1, 12), "and-i", "a \\ back\\\\slash"),
        K.Violation((1,), "box-e", "two\nlines\n"),
        K.Violation((2, 0), "imp-e", ""),
    ]
    text = assert_same(_report([K.Assumption("u", PFormula(P, ()))], violations))
    assert ':condition "say \\"no\\""' in text
    assert ':condition "two\\nlines\\n"' in text
    assert "\n" not in text[:-1]


@pytest.mark.parametrize("name", ["", "a b", "007", "x;y", 'a"b', "(", "a)", "\t", "p\nq"])
def test_atom_names_that_do_not_read_back(name):
    odd = Atom(name)
    for f in (odd, Box(odd), Imp(And(P, odd), Dia(odd)), Or(odd, odd)):
        assert_same(_report([K.Assumption("u", PFormula(f, ("a",)))]))
    shared = Imp(odd, Q)
    assert_same(_report([K.Assumption(f"u{i}", PFormula(shared, ())) for i in range(3)]))


def test_shared_and_equal_formulas(monkeypatch):
    shared = Imp(And(P, Q), Box(Dia(P)))
    opens = [K.Assumption(f"u{i}", PFormula(shared, ("a",) * (i % 3))) for i in range(40)]
    opens += [
        K.Assumption(f"v{i}", PFormula(Imp(And(P, Q), Box(Dia(P))), ("b",))) for i in range(5)
    ]
    opens += [K.Assumption("w", PFormula(shared.left, ())), K.Assumption("x", EFormula(()))]
    report = _report(opens)
    want = assert_same(report)
    assert want.count("(imp (and p q) (box (dia p)))") == 45
    calls = []
    real = K._formula_form
    monkeypatch.setattr(K, "_formula_form", lambda f: calls.append(f) or real(f))
    assert K.print_check_report(report) == want
    assert len(calls) == 7  # the shared formula, five equal copies, its left operand
    assert K.print_check_report(report) == want
    assert len(calls) == 14  # nothing is kept from one call to the next


def test_refused_names_raise_as_before():
    for opens in (
        [K.Assumption("u", PFormula(P, ("x", "a b")))],
        [K.Assumption("a b", PFormula(P, ()))],
        [K.Assumption("u", EFormula(("007",)))],
        # the names are checked before any formula is written
        [K.Assumption("u", PFormula(Atom("a b"), ())), K.Assumption("a b", EFormula(()))],
    ):
        got = assert_same(_report(opens))
        assert got[0] is ValueError and "cannot be written" in got[1]
