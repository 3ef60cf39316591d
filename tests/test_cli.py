"""End-to-end tests for the command-line front end."""

import contextlib
import hashlib
import io
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from posnd import kernel as K
from posnd import semantics as S
from posnd import translate as T
from posnd.cli import main
from posnd.kernel import System
from posnd.syntax import And, Atom, Bottom, Box, PFormula

P, Q = Atom("p"), Atom("q")


def run(argv, stdin=""):
    """Run the CLI on ``stdin``: text, or bytes behind a text stream set up
    as a POSIX standard input is (no newline translation)."""
    out, err = io.StringIO(), io.StringIO()
    old_stdin = sys.stdin
    if isinstance(stdin, bytes):
        sys.stdin = io.TextIOWrapper(
            io.BytesIO(stdin), encoding="utf-8", errors="surrogateescape", newline="\n"
        )
    else:
        sys.stdin = io.StringIO(stdin)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:  # argparse usage errors
                code = exc.code
    finally:
        sys.stdin = old_stdin
    return code, out.getvalue(), err.getvalue()


def axiom_text(axiom, logic):
    code, out, err = run(["axioms", "--logic", logic, "--axiom", axiom])
    assert code == 0, err
    return out


#: A ``t`` proof whose ``box-e`` records the step ``{beta}``.
_T_PROOF = (
    "(proof :system t :flavor classical\n  (imp-e (box-e (box-i x () (imp-i (v) "
    "(hyp v p (x)))) {beta}) (hyp w p {beta})))\n"
)
_EXTRA = {"check": [], "normalize": ["--trace"], "eval": ["--bounds", "2,1,1"],
          "translate-g": [], "export-labelled": []}
#: (step, command, flavor, strict) -> (exit code, the first 16 hex digits of
#: the SHA-256 of stdout, a NUL and stderr).
_STRICT_T_RUNS = {
    ('()', 'check', 'classical', False): (0, 'da3d814af53a072e'),
    ('()', 'check', 'classical', True): (1, 'ccbd5f5b0e476388'),
    ('()', 'check', 'intuitionistic', False): (0, 'da3d814af53a072e'),
    ('()', 'check', 'intuitionistic', True): (1, 'ccbd5f5b0e476388'),
    ('()', 'normalize', 'classical', False): (1, '30237881f5d81fd2'),
    ('()', 'normalize', 'classical', True): (1, '81655f862c2ac908'),
    ('()', 'normalize', 'intuitionistic', False): (0, '8a04cc1f4b6ebc89'),
    ('()', 'normalize', 'intuitionistic', True): (1, '81655f862c2ac908'),
    ('()', 'eval', 'classical', False): (0, '2ad6ca87f7057b40'),
    ('()', 'eval', 'classical', True): (1, '81655f862c2ac908'),
    ('()', 'eval', 'intuitionistic', False): (0, '2ad6ca87f7057b40'),
    ('()', 'eval', 'intuitionistic', True): (1, '81655f862c2ac908'),
    ('()', 'translate-g', 'classical', False): (0, 'c39fee6c36ad5559'),
    ('()', 'translate-g', 'classical', True): (1, '81655f862c2ac908'),
    ('()', 'translate-g', 'intuitionistic', False): (1, '93fea1a521ea7d69'),
    ('()', 'translate-g', 'intuitionistic', True): (1, '81655f862c2ac908'),
    ('()', 'export-labelled', 'classical', False): (0, '08b773ad828b1fe8'),
    ('()', 'export-labelled', 'classical', True): (1, '81655f862c2ac908'),
    ('()', 'export-labelled', 'intuitionistic', False): (0, '08b773ad828b1fe8'),
    ('()', 'export-labelled', 'intuitionistic', True): (1, '81655f862c2ac908'),
    ('(y)', 'check', 'classical', False): (0, 'f9cfa0b7832564a0'),
    ('(y)', 'check', 'classical', True): (0, 'f9cfa0b7832564a0'),
    ('(y)', 'check', 'intuitionistic', False): (0, 'f9cfa0b7832564a0'),
    ('(y)', 'check', 'intuitionistic', True): (0, 'f9cfa0b7832564a0'),
    ('(y)', 'normalize', 'classical', False): (1, '30237881f5d81fd2'),
    ('(y)', 'normalize', 'classical', True): (1, '30237881f5d81fd2'),
    ('(y)', 'normalize', 'intuitionistic', False): (0, '9cb807035c810e1c'),
    ('(y)', 'normalize', 'intuitionistic', True): (0, '9cb807035c810e1c'),
    ('(y)', 'eval', 'classical', False): (0, '2ad6ca87f7057b40'),
    ('(y)', 'eval', 'classical', True): (0, '2ad6ca87f7057b40'),
    ('(y)', 'eval', 'intuitionistic', False): (0, '2ad6ca87f7057b40'),
    ('(y)', 'eval', 'intuitionistic', True): (0, '2ad6ca87f7057b40'),
    ('(y)', 'translate-g', 'classical', False): (0, '10eb2a3ef44424e2'),
    ('(y)', 'translate-g', 'classical', True): (0, '10eb2a3ef44424e2'),
    ('(y)', 'translate-g', 'intuitionistic', False): (1, '93fea1a521ea7d69'),
    ('(y)', 'translate-g', 'intuitionistic', True): (1, '93fea1a521ea7d69'),
    ('(y)', 'export-labelled', 'classical', False): (0, '9896cb65fb5ee0b6'),
    ('(y)', 'export-labelled', 'classical', True): (0, '9896cb65fb5ee0b6'),
    ('(y)', 'export-labelled', 'intuitionistic', False): (0, '9896cb65fb5ee0b6'),
    ('(y)', 'export-labelled', 'intuitionistic', True): (0, '9896cb65fb5ee0b6'),
}


class TestCheck:
    def test_axioms_pipe_into_check(self):
        text = axiom_text("four", "k4")
        code, out, _ = run(["check", "-"], stdin=text)
        assert code == 0
        assert ":ok true" in out

    def test_cross_logic_rejection_names_step_constraint(self):
        text = axiom_text("t", "t")
        code, out, _ = run(["check", "-", "--logic", "k"], stdin=text)
        assert code == 1
        assert ":ok false" in out
        assert "step constraint" in out

    def test_report_fields_present(self):
        text = axiom_text("d", "d")
        code, out, _ = run(["check", "-"], stdin=text)
        assert code == 0
        for key in (":ok", ":violations", ":open"):
            assert key in out

    def test_reads_files_and_stdin_alike(self, tmp_path):
        text = axiom_text("k", "k")
        path = tmp_path / "proof.prf"
        path.write_text(text, encoding="utf-8")
        from_file = run(["check", str(path)])
        from_stdin = run(["check", "-"], stdin=text)
        assert from_file == from_stdin
        assert from_file[0] == 0

    def test_strict_empty_step_flag(self):
        text = axiom_text("t", "t")
        relaxed = run(["check", "-"], stdin=text)
        strict = run(["check", "-", "--t-strict-empty-beta"], stdin=text)
        assert relaxed[0] == 0
        assert strict[0] == 1
        assert "step constraint" in strict[1]

    def test_strict_t_runs_as_before(self):
        """Every command that reads a proof, with the flag set and not, on a
        ``t`` proof with an empty step and on one with a one-token step,
        gives the exit code and output bytes of the code in which strict
        ``t`` was a keyword of each function instead of a ``System`` field."""
        got = {}
        for beta, command, flavor, strict in _STRICT_T_RUNS:
            argv = [command, "-", *_EXTRA[command], "--flavor", flavor]
            code, out, err = run(
                argv + ["--t-strict-empty-beta"] * strict, stdin=_T_PROOF.format(beta=beta)
            )
            digest = hashlib.sha256(f"{out}\0{err}".encode()).hexdigest()[:16]
            got[beta, command, flavor, strict] = (code, digest)
        assert got == _STRICT_T_RUNS

    def test_parse_error_exits_2(self):
        code, _, err = run(["check", "-"], stdin="(proof junk")
        assert code == 2
        assert err.startswith("parse error: line")

    def test_non_ascii_digit_atom_gets_a_report(self):
        text = "(proof :system s4 :flavor classical (hyp u ² ()))"
        code, out, err = run(["check", "-"], stdin=text)
        assert code == 0, err
        assert out.startswith("(check-report :ok true")
        assert ":formula ²" in out

    def test_missing_file_exits_2(self):
        code, _, err = run(["check", "/no/such/file.prf"])
        assert code == 2
        assert "cannot read" in err

    @pytest.mark.parametrize(
        "data, where",
        [
            (b"\xff(proof :system s4 :flavor classical (hyp u p ()))", "line 1, column 1"),
            (b"(proof :system s4 :flavor classical\r\n  (hyp u p\xff ()))", "line 2, column 11"),
        ],
        ids=["at-the-start", "inside-an-atom"],
    )
    def test_undecodable_bytes_read_alike_from_files_and_stdin(self, tmp_path, data, where):
        path = tmp_path / "proof.prf"
        path.write_bytes(data)
        from_file = run(["check", str(path)])
        assert from_file == run(["check", "-"], stdin=data)
        assert from_file == (2, "", f"parse error: {where}: invalid UTF-8 byte 0xff\n")

    def test_line_endings_read_alike_from_files_and_stdin(self, tmp_path):
        # a lone carriage return ends the comment before the node
        data = b"(proof :system s4 :flavor classical ; c\r  (hyp u p\r\n ()))\r\n"
        path = tmp_path / "proof.prf"
        path.write_bytes(data)
        from_file = run(["check", str(path)])
        assert from_file == run(["check", "-"], stdin=data)
        assert from_file[0] == 0

    def test_a_real_standard_input_reads_as_the_file(self, tmp_path):
        src = Path(K.__file__).resolve().parent.parent
        env = {**os.environ, "PYTHONPATH": str(src)}
        path = tmp_path / "proof.prf"
        results = []
        for data in (b"(proof :system s4 :flavor classical ; c\r (hyp u p\xff ()))", b"\xff"):
            path.write_bytes(data)
            for argv, fed in ((["check", str(path)], b""), (["check", "-"], data)):
                done = subprocess.run(
                    [sys.executable, "-m", "posnd.cli", *argv],
                    input=fed, capture_output=True, env=env, timeout=60,
                )
                results.append((done.returncode, done.stdout, done.stderr))
        assert results[0] == results[1] and results[2] == results[3]
        assert results[0] == (2, b"", b"parse error: line 2, column 10: invalid UTF-8 byte 0xff\n")
        assert results[2][0] == 2

    @pytest.mark.parametrize("position", ['("a\\"b")', '("007")'])
    def test_a_position_token_that_does_not_read_back_exits_2(self, position):
        text = f"(proof :system s4 :flavor classical (hyp u p {position}))"
        for command in ("check", "normalize"):
            code, out, err = run([command, "-"], stdin=text)
            assert (code, out) == (2, "")
            assert err.count("\n") == 1 and "invalid position token" in err


def redex_proof_text():
    d = K.and_e1(K.and_i(K.hyp("u", P, ()), K.hyp("v", Q, ())))
    return K.print_proof(d, System("k", "intuitionistic"))


class TestNormalize:
    def test_trace_then_normal_proof(self):
        code, out, _ = run(["normalize", "-", "--trace"], stdin=redex_proof_text())
        assert code == 0
        assert out.splitlines()[0] == "; trace (1,1) (0,0)"

    def test_output_recycles_through_check(self):
        _, out, _ = run(["normalize", "-", "--trace"], stdin=redex_proof_text())
        code, report, _ = run(["check", "-"], stdin=out)
        assert code == 0
        assert ":ok true" in report

    def test_without_trace_flag_only_proof(self):
        code, out, _ = run(["normalize", "-"], stdin=redex_proof_text())
        assert code == 0
        assert out.startswith("(proof")

    def test_non_checking_input_fails(self):
        d = K.box_e(K.hyp("u", Box(P), ()), ("x",))  # no witness premise in k
        text = K.print_proof(d, System("k", "intuitionistic"))
        code, out, err = run(["normalize", "-"], stdin=text)
        assert code == 1
        assert out == ""
        assert ":ok false" in err

    def test_classical_flavor_unsupported(self):
        text = axiom_text("dia-dual", "k")
        code, _, err = run(["normalize", "-"], stdin=text)
        assert code == 1
        assert "intuitionistic" in err


class TestAxioms:
    def test_every_logic_emits_rechecking_chunks(self):
        for logic in ("k", "s4"):
            code, out, _ = run(["axioms", "--logic", logic])
            assert code == 0
            chunks = [c for c in out.split("\n\n") if c.strip()]
            expected = sorted(
                a for a, lg in K.BUILTIN_PAIRS if lg == logic
            )
            assert len(chunks) == len(expected)
            for chunk in chunks:
                inner_code, report, _ = run(["check", "-"], stdin=chunk)
                assert inner_code == 0, report

    def test_unsupported_pair_fails(self):
        code, _, err = run(["axioms", "--logic", "k", "--axiom", "t"])
        assert code == 1
        assert err != ""

    def test_byte_deterministic(self):
        first = run(["axioms", "--logic", "d4"])
        second = run(["axioms", "--logic", "d4"])
        assert first == second


class TestEval:
    def test_valid_within_bounds(self):
        text = axiom_text("t", "t")
        code, out, _ = run(["eval", "-", "--bounds", "2,2,1"], stdin=text)
        assert code == 0
        assert out == "valid-within-bounds\n"

    @pytest.mark.parametrize("logic", ["k", "d", "t"])
    def test_bounds_far_past_the_formulas_reach(self, logic):
        # The probe sweeps trees one level deep, whatever the depth bound.
        text = axiom_text(logic, logic)
        code, out, _ = run(["eval", "-", "--bounds", "12,2,1"], stdin=text)
        assert code == 0
        assert out == "valid-within-bounds\n"

    def test_open_assumptions_enter_the_judgment(self):
        d = K.hyp("u", P, ())
        text = K.print_proof(d, System("k", "intuitionistic"))
        code, out, _ = run(["eval", "-", "--bounds", "1,1,1"], stdin=text)
        assert code == 0
        assert out == "valid-within-bounds\n"

    def test_non_checking_input_fails_before_probe(self):
        text = axiom_text("t", "t")
        code, out, err = run(
            ["eval", "-", "--logic", "k", "--bounds", "2,2,1"], stdin=text
        )
        assert code == 1
        assert out == ""
        assert ":ok false" in err

    def test_malformed_bounds_exit_2(self):
        text = axiom_text("t", "t")
        code, _, _ = run(["eval", "-", "--bounds", "2,2"], stdin=text)
        assert code == 2

    def test_countermodel_report_format(self, monkeypatch):
        # A checking proof never has a countermodel (that is soundness),
        # so drive the reporting branch directly.
        model = S.TreeModel(
            frozenset({(), (0,)}), {(0,): frozenset({"p"})}
        )
        rho = S.Evaluation({(): ()})
        monkeypatch.setattr(
            "posnd.cli.S.consequence_probe", lambda *a, **k: False
        )
        monkeypatch.setattr(
            "posnd.cli.S.find_countermodel", lambda *a, **k: (model, rho)
        )
        text = axiom_text("t", "t")
        code, out, _ = run(["eval", "-", "--bounds", "1,1,1"], stdin=text)
        assert code == 1
        lines = out.splitlines()
        assert lines[0] == "; countermodel"
        assert lines[-1] == "; evaluation () -> ()"
        body = "\n".join(l for l in lines if not l.startswith(";")) + "\n"
        logic, parsed = S.parse_model(body)
        assert logic == "t"
        assert parsed == model


class TestTranslateG:
    def test_roundtrip_through_check(self):
        text = axiom_text("dia-dual", "k")
        code, out, _ = run(["translate-g", "-"], stdin=text)
        assert code == 0
        assert ":flavor intuitionistic" in out
        inner, report, _ = run(["check", "-"], stdin=out)
        assert inner == 0
        assert ":ok true" in report

    def test_intuitionistic_input_rejected(self):
        code, _, err = run(["translate-g", "-"], stdin=redex_proof_text())
        assert code == 1
        assert "classical" in err

    def test_byte_deterministic(self):
        text = axiom_text("four", "s4")
        first = run(["translate-g", "-"], stdin=text)
        second = run(["translate-g", "-"], stdin=text)
        assert first == second
        assert first[0] == 0


class TestExportLabelled:
    def test_reflexive_axiom_bytes(self):
        text = axiom_text("t", "t")
        code, out, _ = run(["export-labelled", "-"], stdin=text)
        assert code == 0
        assert out == (
            "labelled-sketch total\n"
            "  |- w_:(imp (box p) p)  [imp-i]\n"
            "    w_:(box p) |- w_:p  [refl]\n"
            "      w_:(box p), w_ R w_ |- w_:p  [box-e-l]\n"
            "        w_:(box p) |- w_:(box p)  [hyp]\n"
        )

    def test_partial_mode_header(self):
        text = axiom_text("k", "k")
        code, out, _ = run(["export-labelled", "-"], stdin=text)
        assert code == 0
        assert out.splitlines()[0] == "labelled-sketch partial"

    def test_non_checking_input_fails(self):
        d = K.box_e(K.hyp("u", Box(P), ()), ("x",))
        text = K.print_proof(d, System("k", "intuitionistic"))
        code, out, err = run(["export-labelled", "-"], stdin=text)
        assert code == 1
        assert out == ""
        assert ":ok false" in err


class TestDeepArguments:
    # Every argument kind nested 5,000 lists deep: the message shows the
    # list cut short, so it stays one short line.
    DEEP = "(" * 5000 + "x" + ")" * 5000
    NODES = {
        "label": f"(hyp {DEEP} p ())",
        "label list": f"(imp-i ({DEEP}) (hyp u p ()))",
        "token": f"(box-i {DEEP} () (hyp u p (a)))",
        "position": f"(hyp u p ({DEEP}))",
        "formula": f"(hyp u {DEEP} ())",
    }
    HEADERS = {":system": (DEEP, "intuitionistic"), ":flavor": ("s4", DEEP)}

    @pytest.mark.parametrize("kind", [*NODES, *HEADERS])
    def test_is_a_parse_error_in_one_short_line(self, kind):
        logic, flavor = self.HEADERS.get(kind, ("s4", "intuitionistic"))
        node = self.NODES.get(kind, "(hyp u p ())")
        text = f"(proof :system {logic} :flavor {flavor}\n  {node})\n"
        code, out, err = run(["check", "-"], stdin=text)
        assert code == 2 and out == ""
        assert err.count("\n") == 1 and len(err) < 120, err[:200]
        assert re.match(r"parse error: line [12], column \d+: .*\(\(\(\.\.\.$", err)


class TestInternalErrors:
    def test_formula_too_deep_exits_3_in_one_line(self):
        nested = "(box " * 1500 + "p" + ")" * 1500
        text = f"(proof :system s4 :flavor intuitionistic\n  (hyp u {nested} ()))\n"
        code, out, err = run(["check", "-"], stdin=text)
        assert code == 3
        assert out == ""
        assert err.count("\n") == 1 and "Traceback" not in err
        assert err.startswith("internal error: RecursionError: ")

    def test_normalizer_invariant_exits_3_in_one_line(self, monkeypatch):
        from posnd import normalizer as N

        def broken(*_args, **_kwargs):
            raise N.NormalizerError("proper contraction broke the derivation")

        monkeypatch.setattr(N, "normalize", broken)
        d = K.imp_i(frozenset({"u"}), K.hyp("u", P, ()))
        text = K.print_proof(d, System("s4", "intuitionistic"))
        code, out, err = run(["normalize", "-"], stdin=text)
        assert code == 3
        assert out == ""
        assert err == (
            "internal invariant breach: proper contraction broke the derivation\n"
        )


# --- mutated proof files ---------------------------------------------------

_TOKEN = re.compile(r'[()]|"(?:[^"\\]|\\.)*"|[^\s()";]+')


def _source_tokens():
    """The built-in classical proofs and their g-translations, as token lists."""
    out = []
    for axiom, logic in sorted(K.BUILTIN_PAIRS):
        d, system = K.builtin(axiom, logic)
        out.append(K.print_proof(d, system))
        target = System(logic, "intuitionistic")
        out.append(K.print_proof(T.classical_to_intuitionistic(d, system), target))
    return [_TOKEN.findall(text) for text in out]


_SOURCES = _source_tokens()
_POOL = sorted({t for toks in _SOURCES for t in toks}) + [
    "()", '""', "_0", "0", "-1", "99999999999999999999", "\u00b2", "bogus",
]

# Every subcommand that reads a proof file (``axioms`` reads none).
_COMMAND_LINES = (
    ["check", "-"],
    ["check", "-", "--t-strict-empty-beta"],
    ["normalize", "-", "--trace"],
    ["normalize", "-", "--flavor", "intuitionistic"],
    ["eval", "-", "--bounds", "1,1,1"],
    ["translate-g", "-"],
    ["export-labelled", "-"],
)


@st.composite
def mutated_proof_texts(draw):
    """A built-in proof or its translation with one to three of its tokens
    swapped, replaced or wrapped in parentheses."""
    toks = list(draw(st.sampled_from(_SOURCES)))
    for _ in range(draw(st.integers(1, 3))):
        kind = draw(st.sampled_from(("swap", "replace", "wrap")))
        # Swaps and replacements pick atoms, so most texts stay balanced.
        atoms = [k for k, t in enumerate(toks) if t not in ("(", ")")]
        i = draw(st.sampled_from(atoms))
        if kind == "swap":
            j = draw(st.sampled_from(atoms))
            toks[i], toks[j] = toks[j], toks[i]
        elif kind == "replace":
            toks[i] = draw(st.sampled_from(_POOL))
        else:
            j = draw(st.integers(i + 1, min(len(toks), i + 6)))
            toks[i:j] = ["(", *toks[i:j], ")"]
    return " ".join(toks)


@settings(max_examples=250, deadline=None, derandomize=True)
@given(mutated_proof_texts())
def test_every_command_ends_cleanly_on_mutated_proofs(text):
    # Exit 3 would be a crash or a broken invariant: a mutated file is
    # either read and answered (0 or 1) or rejected as malformed (2).
    for argv in _COMMAND_LINES:
        code, _, err = run(argv, stdin=text)
        assert code in (0, 1, 2), (argv, text, err)
        assert "Traceback" not in err
        assert err == "" if code == 0 else err.count("\n") <= 1, (argv, text, err)
        assert code != 2 or err.count("\n") == 1, (argv, text)
