"""Tests of the benchmark itself: generators, known answers, statistics.

Run from the repository root with ``python3 -m pytest perfbench``.
"""

from __future__ import annotations

import json
import random
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import forms as F  # noqa: E402
import inputs as I  # noqa: E402
import kripke  # noqa: E402
import proofs as P  # noqa: E402
import run  # noqa: E402
import workloads as W  # noqa: E402
from spans import NoTrace  # noqa: E402

from posnd import kernel as K  # noqa: E402
from posnd import normalizer as N  # noqa: E402
from posnd import semantics as S  # noqa: E402
from posnd import syntax as Y  # noqa: E402


# --- generators ------------------------------------------------------------


def test_generators_are_deterministic_per_seed():
    for gen in (I.check_stream, I.normalize_deep, I.countermodel):
        assert gen(7) == gen(7)
        assert gen(7) != gen(8)


def test_check_stream_mix_is_fixed():
    items = I.check_stream(3)
    counts = {cls: sum(1 for it in items if it.cls == cls) for cls, _ in I.CHECK_BLOCK}
    blocks = len(items) // 80
    assert counts == {cls: n * blocks for cls, n in I.CHECK_BLOCK}
    for cls, _ in I.CHECK_BLOCK:
        ok = [it.ok for it in items if it.cls == cls]
        assert sum(ok) * 2 == len(ok)
    assert {(it.logic, it.flavor) for it in items} == set(I.SYSTEMS)
    small = [it.nodes for it in items if it.cls == "small"]
    assert max(small) <= 40
    for it in items:
        if it.cls == "large-context" and it.ok:
            assert 100 <= len(it.opens) <= 310


# --- known answers ---------------------------------------------------------


def _check(item):
    d, system = K.parse_proof(item.text)
    return K.check(d, system)


def test_every_check_stream_answer_holds():
    items = I.check_stream(11, blocks=1)
    out = W.CheckStream()
    for item, prepared in zip(items, out.prepare(items)):
        assert out.verify(prepared, out.request(prepared, NoTrace()), NoTrace()) is None, item


def test_axioms_hold_exactly_where_the_calculus_says():
    for name, (build, logics) in P.AXIOMS.items():
        for logic in P.LOGICS:
            d = build(("and", "p", "q"), "q", logic in P.PARTIAL)
            for flavor in P.FLAVORS:
                rep = _check(I.CheckItem("small", F.proof_text(d.node, logic, flavor), logic, flavor, True, d.size))
                assert rep.ok == P.valid_in(d, logic, flavor), (name, logic, flavor)
                if logic in logics and not (name == "dia-dual" and flavor == "intuitionistic"):
                    assert rep.ok


def test_each_break_kind_is_rejected_for_its_reason():
    rng = random.Random(5)
    for logic, flavor in I.SYSTEMS:
        for kind in I.break_kinds(logic, flavor):
            d = I._broken_core(rng, kind, logic)
            rep = _check(I.CheckItem("small", F.proof_text(d.node, logic, flavor), logic, flavor, False, d.size))
            assert not rep.ok
            assert any(
                v.path == d.mark and v.rule == d.mark_rule and P.BREAK_KEYWORDS[kind] in v.message
                for v in rep.violations
            ), (logic, flavor, kind, rep.violations)


def test_normalize_deep_answers_spot_check():
    items = I.normalize_deep(4, blocks=2)
    out = W.NormalizeDeep()
    for item, prepared in zip(items, out.prepare(items)):
        assert out.verify(prepared, out.request(prepared, NoTrace()), NoTrace()) is None, item.text


def test_chain_normal_forms_by_construction():
    rng = random.Random(9)
    for family, figs in (("box", P.TRANSPARENT + ("box",)), ("comm", P.TRANSPARENT + ("comm-or", "comm-dia"))):
        for logic in ("k", "s4"):
            base = P.hyp("u", ("box", "p") if family == "box" else "p")
            d, nf = P.chain(base, [rng.choice(figs) for _ in range(5)], logic in P.PARTIAL, "q")
            der, system = K.parse_proof(F.proof_text(d.node, logic, "intuitionistic"))
            out, _ = N.normalize(der, system)
            got = F.proof_body(K.print_proof(out, system))[0]
            assert F.canonical(got) == F.canonical(nf.node)
            assert F.conclusion(got) == (d.formula, d.pos)


def test_probe_table_by_brute_force():
    """Each (schema, logic) pair's answer, decided by the benchmark's own
    evaluator over every model with depth 2, branching 2 and one atom."""
    rng = random.Random(2)
    for schemas, closed in ((I.CLOSED_SCHEMAS, True), (I.OPEN_SCHEMAS, False)):
        for name, (build, valid_logics) in schemas.items():
            for logic in P.LOGICS:
                valid = logic in valid_logics
                a = I.formula(rng, 1) if valid else rng.choice(I.REFUTABLE_A)
                if closed:
                    gamma, target = [], (build(a, "q"), ())
                else:
                    gamma, target = build(a, "q")
                gamma = [("p", f, pos) for f, pos in gamma]
                assert kripke.brute_force_refutable(gamma, target, logic, 2, 2, ("p",)) != valid, (name, logic)


def test_countermodel_answers_spot_check():
    items = I.countermodel(6, blocks=2)
    out = W.Countermodel()
    for item, prepared in zip(items, out.prepare(items)):
        assert out.verify(prepared, out.request(prepared, NoTrace()), NoTrace()) is None, item


def test_kripke_evaluator_agrees_with_the_package_on_truth():
    rng = random.Random(3)
    for logic in P.LOGICS:
        models = list(S.enumerate_models(S.Bounds(2, 2, 1), logic))
        for m in rng.sample(models, 30):
            mine = kripke.Model(m.nodes, m.valuation, m.serial_completion)
            for _ in range(5):
                f = I.formula(rng, 3)
                world = rng.choice(sorted(m.nodes))
                ours = kripke.truth(mine, logic, world, f)
                assert ours == S.holds(m, logic, world, Y.parse_formula(F.dump(f)))


def test_a_wrong_countermodel_is_caught():
    item = next(it for it in I.countermodel(1) if not it.valid)
    out = W.Countermodel()
    (prepared,) = out.prepare([item])
    gamma, target, holds, found = out.request(prepared, NoTrace())
    model, rho = found
    flipped = S.TreeModel(model.nodes, {w: {"p"} for w in model.nodes} if not model.valuation else {}, model.serial_completion)
    assert out.verify(prepared, (gamma, target, holds, (flipped, rho)), NoTrace()) is not None


# --- statistics and output -------------------------------------------------


def test_percentile_interpolates_between_ranks():
    vals = [float(x) for x in range(1, 101)]
    assert run.percentile(vals, 50) == 50.5
    assert run.percentile(vals, 90) == 90.1
    assert run.percentile([3.0], 99) == 3.0


def test_tail_percentile_keeps_ten_samples_beyond():
    assert run.tail_percentile(9) is None
    assert run.tail_percentile(20) == 50.0
    assert run.tail_percentile(99) == 50.0
    assert run.tail_percentile(100) == 90.0
    assert run.tail_percentile(999) == 90.0
    assert run.tail_percentile(1000) == 99.0
    assert run.tail_percentile(10000) == 99.9


def test_benchmark_json_matches_the_runner():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(W.WORKLOADS)
