"""``print_proof`` and ``derivation_to_labelled`` rename reserved tokens as
they write, by the map ``sanitize_tokens`` applies, instead of rebuilding
the tree first.

They must build no node, and write what they wrote after
``sanitize_tokens``: on the proof files of the check-stream benchmark
(seeds 1-3, no reserved token, half of them failing to check) and on the
normal forms of the normalize-deep benchmark (seeds 1-5), whose witnesses
carry the reserved tokens the normalizer numbered.
"""

from __future__ import annotations

import sys
from pathlib import Path

from posnd import kernel as K
from posnd import normalizer as N
from posnd import translate as T

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

import inputs as I  # noqa: E402


def _trees():
    out = []
    for seed in (1, 2, 3):
        for item in I.check_stream(seed):
            out.append(K.parse_proof(item.text))
    for seed in range(1, 6):
        for item in I.normalize_deep(seed):
            d, system = K.parse_proof(item.text)
            if item.flavor == "classical":
                d = T.classical_to_intuitionistic(d, system)
            si = K.System(item.logic, "intuitionistic")
            out.append((N.normalize(d, si)[0], si))
    return out


def _written(d, system):
    """What both writers make of ``d``; an error stands for its text."""
    res = []
    for write in (
        K.print_proof,
        lambda t, s: T.print_labelled(T.derivation_to_labelled(t, s)),
    ):
        try:
            res.append(write(d, system))
        except ValueError as e:
            res.append(f"ValueError: {e}")
    return res


def test_writers_build_no_node_and_write_the_sanitized_tree(monkeypatch):
    trees = _trees()
    want = [_written(K.sanitize_tokens(d), system) for d, system in trees]
    built = []
    real = K._node
    monkeypatch.setattr(K, "_node", lambda *a: built.append(a[0]) or real(*a))
    got = [_written(d, system) for d, system in trees]
    assert built == []
    assert got == want
    renamed = sum(bool(K._token_map(d)) for d, _ in trees)
    assert renamed > 50 and len(trees) - renamed > 100
