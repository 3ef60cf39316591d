"""Command-line front end for checking, normalizing, probing, and
translating position-decorated proofs.

Subcommands::

    check FILE             print the check report; exit 0 iff it checks
    normalize FILE         print the normal form (with --trace, a rank trace)
    axioms --logic L       print builtin axiom derivations as proof files
    eval FILE --bounds ... bounded countermodel search over the open judgment
    translate-g FILE       print the intuitionistic translation proof file
    export-labelled FILE   print the labelled sequent-calculus sketch

``-`` stands for standard input wherever a file is expected.  All output
is byte-deterministic given identical inputs and flags.  Exit codes:
0 success, 1 failed check / refuted probe / unsupported request,
2 parse or usage error, 3 internal error (a broken invariant, or any other
failure such as a too deeply nested input or exhausted memory).  Every
error is reported in one line on standard error, never as a traceback.
"""

from __future__ import annotations

import argparse
import re
import sys
from pathlib import Path

from . import kernel as K
from . import normalizer as N
from . import semantics as S
from . import translate as T
from ._sexpr import ParseError, _error
from .kernel import SubstitutionUnsound, System, UnsupportedPair
from .normalizer import FlavorUnsupported, NormalizerError
from .syntax import PFormula

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_PARSE = 2
EXIT_INTERNAL = 3


def _read(path: str) -> str:
    """A file's or standard input's bytes, decoded as UTF-8 with ``\\r\\n`` and
    ``\\r`` read as ``\\n``; a byte that is not UTF-8 is a parse error at it."""
    stdin = getattr(sys.stdin, "buffer", sys.stdin)
    data = stdin.read() if path == "-" else Path(path).read_bytes()
    if isinstance(data, str):  # a text stream standing in for standard input
        return data
    text = str(data, "utf-8", "surrogateescape").replace("\r\n", "\n").replace("\r", "\n")
    bad = re.search("[\udc80-\udcff]", text)  # where the undecodable bytes went
    if bad:
        raise _error(text, f"invalid UTF-8 byte {ord(bad[0]) - 0xDC00:#x}", bad.start())
    return text


def _emit(text: str) -> None:
    sys.stdout.write(text)


def _complain(message: str) -> None:
    print(message, file=sys.stderr)


def _bounds(text: str) -> S.Bounds:
    parts = text.split(",")
    if len(parts) != 3:
        raise argparse.ArgumentTypeError(
            "bounds must be three comma-separated integers: depth,branching,atoms"
        )
    try:
        depth, branching, atoms = (int(p) for p in parts)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None
    try:
        return S.Bounds(depth, branching, atoms)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _override(system: System, args: argparse.Namespace) -> System:
    logic, flavor = args.logic or system.logic, args.flavor or system.flavor
    return System(logic, flavor, args.t_strict_empty_beta)


def _load(args: argparse.Namespace):
    text = _read(args.file)
    derivation, system = K.parse_proof(text)
    return derivation, _override(system, args)


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="posnd",
        description="check, normalize, probe, and translate "
        "position-decorated natural deduction proofs",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("file", metavar="FILE", help="proof file, or - for stdin")
        p.add_argument("--logic", choices=K.LOGICS, help="override the file's logic")
        p.add_argument(
            "--flavor",
            choices=("classical", "intuitionistic"),
            help="override the file's flavor",
        )
        p.add_argument(
            "--t-strict-empty-beta",
            action="store_true",
            help="in logic t, demand exactly one step on recorded suffixes",
        )

    common(sub.add_parser("check", help="check a proof and print the report"))

    p_norm = sub.add_parser("normalize", help="normalize a checking proof")
    common(p_norm)
    p_norm.add_argument(
        "--trace", action="store_true", help="also print the rank trace"
    )

    p_ax = sub.add_parser("axioms", help="print builtin axiom derivations")
    p_ax.add_argument("--logic", choices=K.LOGICS, required=True)
    p_ax.add_argument(
        "--axiom",
        help="one axiom name (default: every axiom available in the logic)",
    )

    p_eval = sub.add_parser(
        "eval", help="bounded countermodel search over the proof's judgment"
    )
    common(p_eval)
    p_eval.add_argument(
        "--bounds",
        type=_bounds,
        required=True,
        metavar="D,B,K",
        help="max depth, max branching, number of atoms",
    )

    common(
        sub.add_parser(
            "translate-g",
            help="translate a classical proof into the intuitionistic system",
        )
    )
    common(
        sub.add_parser(
            "export-labelled",
            help="print the labelled sequent-calculus sketch",
        )
    )
    return parser


def _checked(args: argparse.Namespace, *, report_to_stdout: bool):
    """Parse, apply overrides, and check; returns (derivation, system,
    report)."""
    derivation, system = _load(args)
    report = K.check(derivation, system)
    if report_to_stdout:
        _emit(K.print_check_report(report))
    elif not report.ok:
        _complain(K.print_check_report(report).rstrip("\n"))
    return derivation, system, report


def _cmd_check(args: argparse.Namespace) -> int:
    _, _, report = _checked(args, report_to_stdout=True)
    return EXIT_OK if report.ok else EXIT_FAIL


def _cmd_normalize(args: argparse.Namespace) -> int:
    derivation, system, report = _checked(args, report_to_stdout=False)
    if not report.ok:
        return EXIT_FAIL
    normal, trace = N.normalize(derivation, system)
    if args.trace:
        _emit("; trace " + " ".join(f"({a},{b})" for a, b in trace) + "\n")
    _emit(K.print_proof(normal, system))
    return EXIT_OK


def _cmd_axioms(args: argparse.Namespace) -> int:
    if args.axiom is not None:
        derivation, system = K.builtin(args.axiom, args.logic)
        _emit(K.print_proof(derivation, system))
        return EXIT_OK
    names = sorted(a for a, logic in K.BUILTIN_PAIRS if logic == args.logic)
    chunks = []
    for name in names:
        derivation, system = K.builtin(name, args.logic)
        chunks.append(K.print_proof(derivation, system))
    _emit("\n".join(chunks))
    return EXIT_OK


def _cmd_eval(args: argparse.Namespace) -> int:
    derivation, system, report = _checked(args, report_to_stdout=False)
    if not report.ok:
        return EXIT_FAIL
    if not isinstance(derivation.conclusion, PFormula):
        _complain("existence conclusions cannot be probed")
        return EXIT_FAIL
    gamma = [a.content for a in report.open_assumptions]
    target = derivation.conclusion
    found = S.find_countermodel(gamma, target, system.logic, args.bounds)
    if found is None:
        _emit("valid-within-bounds\n")
        return EXIT_OK
    model, rho = found
    _emit("; countermodel\n")
    _emit(S.print_model(model, system.logic))
    for position in sorted(rho.entries, key=lambda p: (len(p), p)):
        world = rho.entries[position]
        _emit(
            "; evaluation ("
            + " ".join(position)
            + ") -> ("
            + " ".join(str(i) for i in world)
            + ")\n"
        )
    return EXIT_FAIL


def _cmd_translate_g(args: argparse.Namespace) -> int:
    derivation, system, report = _checked(args, report_to_stdout=False)
    if not report.ok:
        return EXIT_FAIL
    if system.flavor != "classical":
        _complain("translate-g expects a classical proof")
        return EXIT_FAIL
    target = System(system.logic, "intuitionistic")
    out = T.classical_to_intuitionistic(derivation, system)
    _emit(K.print_proof(out, target))
    return EXIT_OK


def _cmd_export_labelled(args: argparse.Namespace) -> int:
    derivation, system, report = _checked(args, report_to_stdout=False)
    if not report.ok:
        return EXIT_FAIL
    sketch = T.derivation_to_labelled(derivation, system)
    _emit(T.print_labelled(sketch))
    return EXIT_OK


_COMMANDS = {
    "check": _cmd_check,
    "normalize": _cmd_normalize,
    "axioms": _cmd_axioms,
    "eval": _cmd_eval,
    "translate-g": _cmd_translate_g,
    "export-labelled": _cmd_export_labelled,
}


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except ParseError as exc:
        _complain(f"parse error: {exc}")
        return EXIT_PARSE
    except OSError as exc:
        _complain(f"cannot read input: {exc}")
        return EXIT_PARSE
    except (UnsupportedPair, FlavorUnsupported, N.NotNormal) as exc:
        _complain(str(exc))
        return EXIT_FAIL
    except (NormalizerError, SubstitutionUnsound, AssertionError) as exc:
        _complain(f"internal invariant breach: {exc}")
        return EXIT_INTERNAL
    except Exception as exc:  # a crash is never reported as a failed check
        name = type(exc).__name__
        _complain(" ".join(f"internal error: {name}: {exc}".split()).rstrip(":"))
        return EXIT_INTERNAL


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
