"""The three workloads: what one request does and how its output is checked.

Each workload builds its items from the seed (``generate``), turns them into
the package's inputs (``prepare``; both count as set-up), and runs one
request per item (``request``, the timed part, which only calls the package).
``verify`` then compares the outputs with the answer known by construction
and returns ``None`` or a short reason.
Requests call only public functions of ``posnd.kernel``, ``posnd.normalizer``,
``posnd.semantics``, ``posnd.translate`` and ``posnd.syntax``, each through
``tr.call`` so that a traced run records a span around it.
"""

from __future__ import annotations

import forms as F
import inputs as I
import kripke

from posnd import kernel as K
from posnd import normalizer as N
from posnd import semantics as S
from posnd import syntax as Y
from posnd import translate as T


def to_form(f):
    """A package formula as the benchmark's nested tuples (reads fields only)."""
    if isinstance(f, Y.Atom):
        return f.name
    if isinstance(f, Y.Bottom):
        return F.BOT
    if isinstance(f, (Y.Box, Y.Dia)):
        return ("box" if isinstance(f, Y.Box) else "dia", to_form(f.body))
    head = {Y.And: "and", Y.Or: "or", Y.Imp: "imp"}[type(f)]
    return (head, to_form(f.left), to_form(f.right))


def count_nodes(d) -> int:
    n, stack = 0, [d]
    while stack:
        x = stack.pop()
        n += 1
        stack.extend(x.premises)
    return n


class CheckStream:
    """Proof files parsed, checked and reported one by one."""

    name = "check-stream"
    generate = staticmethod(I.check_stream)

    def prepare(self, items):
        return [(it, len(it.text.encode())) for it in items]

    def classes(self, prepared):
        return [it.cls for it, _ in prepared]

    def request(self, prepared, tr):
        item, size = prepared
        d, system = tr.call("kernel.parse_proof", K.parse_proof, item.text)
        report = tr.call("kernel.check", K.check, d, system)
        text = tr.call("kernel.print_check_report", K.print_check_report, report)
        return system, report, text

    def verify(self, prepared, outputs, tr):
        item, size = prepared
        system, report, text = outputs
        tr.count("kernel.parse_proof.bytes", size)
        tr.count("kernel.check.nodes", item.nodes)
        tr.count("kernel.check.rejected", not report.ok)
        if (system.logic, system.flavor) != (item.logic, item.flavor):
            return "system"
        if report.ok != item.ok:
            return "verdict"
        if not text.startswith(f"(check-report :ok {'true' if item.ok else 'false'} "):
            return "report text"
        if text.count("(violation ") != len(report.violations):
            return "report violations"
        if item.ok:
            if tuple(sorted(a.label for a in report.open_assumptions)) != item.opens:
                return "open assumptions"
            if text.count("(open ") != len(item.opens):
                return "report opens"
        elif not any(
            v.path == item.mark and v.rule == item.rule and item.keyword in v.message
            for v in report.violations
        ):
            return "violation"
        return None


class NormalizeDeep:
    """Intuitionistic derivations normalized, inspected and written out."""

    name = "normalize-deep"
    generate = staticmethod(I.normalize_deep)

    def prepare(self, items):
        out = []
        for it in items:
            d, system = K.parse_proof(it.text)
            out.append((it, d, system, count_nodes(d)))
        return out

    def classes(self, prepared):
        return [p[0].cls for p in prepared]

    def request(self, prepared, tr):
        item, d, system, nodes = prepared
        if item.flavor == "classical":
            d = tr.call("translate.classical_to_intuitionistic", T.classical_to_intuitionistic, d, system)
        si = K.System(item.logic, "intuitionistic")
        report = tr.call("kernel.check", K.check, d, si)
        out, trace = tr.call("normalizer.normalize", N.normalize, d, si)
        normal = tr.call("normalizer.is_normal", N.is_normal, out)
        try:
            spine = tr.call("normalizer.spine", N.spine, out)
        except ValueError:
            spine = None
        text = tr.call("kernel.print_proof", K.print_proof, out, si)
        sketch = tr.call("translate.derivation_to_labelled", T.derivation_to_labelled, out, si)
        labelled = tr.call("translate.print_labelled", T.print_labelled, sketch)
        return d, report, out, trace, normal, spine, text, labelled

    def verify(self, prepared, outputs, tr):
        item, _, _, nodes = prepared
        d, report, out, trace, normal, spine, text, labelled = outputs
        if item.flavor == "classical":
            tr.count("translate.nodes_in", nodes)
            nodes = count_nodes(d)
            tr.count("translate.nodes_out", nodes)
        tr.count("kernel.check.nodes", nodes)
        tr.count("kernel.check.rejected", not report.ok)
        tr.count("normalizer.rounds", len(trace) - 1)
        tr.count("normalizer.nodes_in", nodes)
        tr.count("normalizer.nodes_out", count_nodes(out))

        if not report.ok:
            return "input does not check"
        if trace[-1] != (0, 0) or any(a <= b for a, b in zip(trace, trace[1:])):
            return "rank trace"
        root, logic, flavor = F.proof_body(text)
        if (logic, flavor) != (item.logic, "intuitionistic"):
            return "printed system"
        if len(F.proof_nodes(root)) != count_nodes(out):
            return "printed size"
        if not (normal and F.is_normal(root)):
            return "not normal"
        if F.conclusion(root) != (item.formula, item.pos):
            return "conclusion"
        if item.normal_form is not None and F.canonical(root) != item.normal_form:
            return "normal form"
        if spine != F.spine_paths(root):
            return "spine"
        mode = "partial" if item.logic in kripke.PARTIAL else "total"
        lines = labelled.split("\n")
        world = "w_" + "_".join(item.pos)
        if lines[0] != f"labelled-sketch {mode}" or f"|- {world}:{F.dump(item.formula)}  [" not in lines[1]:
            return "labelled sketch"
        return None


class Countermodel:
    """Formula texts probed for consequence; refutations re-verified."""

    name = "countermodel"
    generate = staticmethod(I.countermodel)

    def prepare(self, items):
        return [(it, S.Bounds(*it.bounds)) for it in items]

    def classes(self, prepared):
        return [f"{it.cls}-{'valid' if it.valid else 'refutable'}" for it, _ in prepared]

    def request(self, prepared, tr):
        item, bounds = prepared
        gamma = [Y.PFormula(tr.call("syntax.parse_formula", Y.parse_formula, t), pos) for t, pos in item.gamma]
        target = Y.PFormula(tr.call("syntax.parse_formula", Y.parse_formula, item.target[0]), item.target[1])
        name = f"semantics.consequence_probe.{item.cls}"
        holds = tr.call(name, S.consequence_probe, gamma, target, item.logic, bounds)
        found = None
        if not holds:
            found = tr.call("semantics.find_countermodel", S.find_countermodel, gamma, target, item.logic, bounds)
        return gamma, target, holds, found

    def verify(self, prepared, outputs, tr):
        item, _ = prepared
        gamma, target, holds, found = outputs
        tr.count("semantics.refuted", not holds)

        forms_gamma, forms_target = item.formulas
        if [to_form(g.formula) for g in gamma] != [f for f, _ in forms_gamma] or to_form(target.formula) != forms_target[0]:
            return "parsed formula"
        if holds != item.valid:
            return "verdict"
        if holds:
            return None
        if found is None:
            return "no countermodel"
        model, rho = found
        m = kripke.Model(model.nodes, model.valuation, model.serial_completion)
        if model.serial_completion != (item.logic in kripke.SERIAL) or () not in m.nodes:
            return "model shape"
        if any(w and w[:-1] not in m.nodes for w in m.nodes):
            return "model shape"
        entries = dict(rho.entries)
        if not kripke.valid_evaluation(m, item.logic, entries):
            return "evaluation"
        gamma_c = [("p", f, pos) for f, pos in forms_gamma]
        if not kripke.refutes(m, item.logic, entries, gamma_c, forms_target):
            return "countermodel does not refute"
        return None


WORKLOADS = {w.name: w for w in (CheckStream(), NormalizeDeep(), Countermodel())}
