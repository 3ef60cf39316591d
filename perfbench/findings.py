#!/usr/bin/env python3
"""Measure the three costs that later performance work targets.

    python3 perfbench/findings.py

1. ``kernel.check`` on an and-i/and-e1 chain whose open context grows by
   one hypothesis per level: time against size (superlinear today).
2. The longest imp-e/imp-i detour chain ``kernel.check`` takes before it
   raises ``RecursionError``, found by bisection.
3. ``normalizer.normalize`` on imp detour chains: time per round, and the
   share of it spent re-checking and re-freshening the whole tree, counted
   by wrapping the kernel functions the normalizer calls.

Prints one JSON object.  Nothing here is part of a benchmark run.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import forms as F  # noqa: E402
import proofs as P  # noqa: E402

from posnd import kernel as K  # noqa: E402
from posnd import normalizer as N  # noqa: E402
from posnd import syntax as Y  # noqa: E402


def parsed(d, flavor="intuitionistic"):
    return K.parse_proof(F.proof_text(d.node, "s4", flavor))


def best_of(fn, repeats=3):
    times = []
    for _ in range(repeats):
        start = perf_counter()
        fn()
        times.append(perf_counter() - start)
    return min(times)


def open_context_cost():
    rows = []
    for levels in (25, 50, 100, 200):
        d = P.hyp("h0", "p")
        for i in range(1, levels + 1):
            d = P.and_e(1, P.and_i(d, P.hyp(f"h{i}", "q")))
        der, system = parsed(d)
        rows.append({"open_hypotheses": levels + 1, "nodes": d.size, "check_ms": 1e3 * best_of(lambda: K.check(der, system))})
    return rows


def imp_chain(levels):
    """The chain built with the kernel's constructors, which do not recurse
    (the file parser would hit the recursion limit first)."""
    p = Y.Atom("p")
    d = K.hyp("u", p, ())
    for i in range(levels):
        d = K.imp_e(K.imp_i(frozenset({f"a{i}"}), K.hyp(f"a{i}", p, ())), d)
    return d


def recursion_depth_limit():
    """Largest chain length that checks; the next one raises RecursionError."""
    system = K.System("s4", "intuitionistic")
    lo, hi = 1, 4096
    while lo + 1 < hi:
        mid = (lo + hi) // 2
        try:
            K.check(imp_chain(mid), system)
            lo = mid
        except RecursionError:
            hi = mid
    return {"passes": lo, "raises": hi}


def normalize_round_cost():
    rows = []
    for levels in (10, 20, 40):
        der, system = imp_chain(levels), K.System("s4", "intuitionistic")
        spent = {"check": [0, 0.0], "freshen": [0, 0.0]}
        originals = {name: getattr(N, name) for name in spent}

        def wrap(name):
            def timed(*args, **kwargs):
                start = perf_counter()
                try:
                    return originals[name](*args, **kwargs)
                finally:
                    spent[name][0] += 1
                    spent[name][1] += perf_counter() - start
            return timed

        for name in spent:
            setattr(N, name, wrap(name))
        try:
            start = perf_counter()
            _, trace = N.normalize(der, system)
            total = perf_counter() - start
        finally:
            for name, fn in originals.items():
                setattr(N, name, fn)
        rounds = len(trace) - 1
        rows.append({
            "detours": levels,
            "rounds": rounds,
            "normalize_ms": 1e3 * total,
            "ms_per_round": 1e3 * total / rounds,
            "check_calls": spent["check"][0],
            "check_share": spent["check"][1] / total,
            "freshen_calls": spent["freshen"][0],
            "freshen_share": spent["freshen"][1] / total,
        })
    return rows


def main() -> int:
    out = {
        "check_open_context": open_context_cost(),
        "check_recursion_limit": recursion_depth_limit(),
        "normalize_rounds": normalize_round_cost(),
    }
    print(json.dumps(out, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
