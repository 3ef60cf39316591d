"""The benchmark's own view of formulas and proof files.

Formulas are nested tuples in the surface syntax of proof files: an atom is
a string, absurdity is ``"bot"``, and compound formulas are tuples such as
``("imp", A, B)`` or ``("box", A)``.  Positions are tuples of tokens.  The
reader and writer here are independent of the package under test, so the
benchmark can build inputs and inspect outputs without trusting it.
"""

from __future__ import annotations

BOT = "bot"


def neg(f):
    return ("imp", f, BOT)


def dump(value) -> str:
    """Render nested tuples/lists of strings as an s-expression.

    Iterative, so that deep proofs do not hit the recursion limit here.
    """
    out: list[str] = []
    stack = [value]
    while stack:
        v = stack.pop()
        if isinstance(v, (tuple, list)):
            out.append("(")
            stack.append(")")
            for i in range(len(v) - 1, -1, -1):
                stack.append(v[i])
                if i:
                    stack.append(" ")
        else:
            out.append(v)
    return "".join(out)


def parse(text: str):
    """Read one s-expression into nested tuples of strings.

    Comments (``;`` to end of line) are skipped; quoted strings are kept as
    one token with their quotes, which is all the benchmark needs to count
    and compare the forms the package prints.
    """
    tokens = []
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
        elif ch == ";":
            while i < n and text[i] != "\n":
                i += 1
        elif ch in "()":
            tokens.append(ch)
            i += 1
        elif ch == '"':
            j = i + 1
            while text[j] != '"':
                j += 2 if text[j] == "\\" else 1
            tokens.append(text[i : j + 1])
            i = j + 1
        else:
            j = i
            while j < n and not text[j].isspace() and text[j] not in '();"':
                j += 1
            tokens.append(text[i:j])
            i = j
    stack: list[list] = [[]]
    for tok in tokens:
        if tok == "(":
            stack.append([])
        elif tok == ")":
            if len(stack) == 1:
                raise ValueError("unbalanced ')'")
            done = tuple(stack.pop())
            stack[-1].append(done)
        else:
            stack[-1].append(tok)
    if len(stack) != 1 or len(stack[0]) != 1:
        raise ValueError("expected exactly one balanced expression")
    return stack[0][0]


def g_translate(f):
    """The negative translation, written from its definition: atoms are
    doubly negated, ``or`` and ``dia`` are rewritten through negations."""
    if f == BOT:
        return f
    if isinstance(f, str):
        return neg(neg(f))
    head = f[0]
    if head in ("and", "imp"):
        return (head, g_translate(f[1]), g_translate(f[2]))
    if head == "or":
        return neg(("and", neg(g_translate(f[1])), neg(g_translate(f[2]))))
    if head == "box":
        return ("box", g_translate(f[1]))
    if head == "dia":
        return neg(("box", neg(g_translate(f[1]))))
    raise ValueError(f"not a formula: {f!r}")


# Argument slots of each proof rule in the file syntax: "L" a label,
# "LS" a label list, "T" a witness token, "P" a position, "F" a formula,
# "N" a subproof.  Optional trailing slots are listed after "|".
_SLOTS = {
    "hyp": "L F P",
    "ehyp": "L P",
    "and-i": "N N",
    "and-e1": "N",
    "and-e2": "N",
    "or-i1": "F N",
    "or-i2": "F N",
    "or-e": "N LS N LS N",
    "imp-i": "LS N | F P",
    "imp-e": "N N",
    "bot-c": "LS N F P",
    "bot-i": "N F P",
    "box-i": "T LS N",
    "box-e": "N P | N",
    "dia-i": "P N | N",
    "dia-e": "N T LS LS N",
}


def _slots(head: str, nargs: int) -> list[str]:
    spec = _SLOTS[head].split()
    if "|" in spec:
        cut = spec.index("|")
        base, extra = spec[:cut], spec[cut + 1 :]
        return base + extra[: nargs - len(base)]
    return spec


def proof_nodes(node):
    """Every rule application in a proof-file node, root first."""
    out = []
    stack = [node]
    while stack:
        n = stack.pop()
        out.append(n)
        slots = _slots(n[0], len(n) - 1)
        stack.extend(
            reversed([a for a, s in zip(n[1:], slots) if s == "N"])
        )
    return out


def canonical(node):
    """Rename labels and witness tokens by order of first occurrence.

    Two proof-file nodes that differ only in the names of their labels and
    tokens have equal canonical forms.  Formulas are left untouched.
    """
    labels: dict[str, str] = {}
    tokens: dict[str, str] = {}

    def lab(x: str) -> str:
        return labels.setdefault(x, f"L{len(labels)}")

    def tok(x: str) -> str:
        return tokens.setdefault(x, f"T{len(tokens)}")

    def go(n):
        out = [n[0]]
        for arg, slot in zip(n[1:], _slots(n[0], len(n) - 1)):
            if slot == "N":
                out.append(go(arg))
            elif slot == "L":
                out.append(lab(arg))
            elif slot == "LS":
                out.append(tuple(sorted(lab(x) for x in arg)))
            elif slot == "T":
                out.append(tok(arg))
            elif slot == "P":
                out.append(tuple(tok(x) for x in arg))
            else:
                out.append(arg)
        return tuple(out)

    return go(node)


def proof_text(node, logic: str, flavor: str) -> str:
    return dump(("proof", ":system", logic, ":flavor", flavor, node)) + "\n"


def proof_body(text: str):
    """The root node of a proof file, with its system and flavor."""
    form = parse(text)
    if form[0] != "proof" or form[1] != ":system" or form[3] != ":flavor":
        raise ValueError("not a proof file")
    return form[5], form[2], form[4]


def premises(n) -> list:
    """The subproofs of a proof-file node, in premise order."""
    return [a for a, s in zip(n[1:], _slots(n[0], len(n) - 1)) if s == "N"]


INTRO = frozenset({"and-i", "or-i1", "or-i2", "imp-i", "box-i", "dia-i"})
ELIM = frozenset({"and-e1", "and-e2", "or-e", "imp-e", "box-e", "dia-e"})
JOIN = frozenset({"or-e", "dia-e"})


def is_normal(node) -> bool:
    """No elimination has an introduction or a case split as its major premise."""
    return not any(
        n[0] in ELIM and premises(n)[0][0] in (INTRO | JOIN) for n in proof_nodes(node)
    )


def spine_paths(node):
    """The leaf-to-root path through major premises, as premise-index paths
    leaf first; None where a conjunction introduction makes it branch."""
    path: tuple = ()
    acc = [path]
    n = node
    while n[0] not in ("hyp", "ehyp"):
        if n[0] == "and-i":
            return None
        path += (0,)
        n = premises(n)[0]
        acc.append(path)
    return tuple(reversed(acc))


def _bound_formula(n, label):
    for m in proof_nodes(n):
        if m[0] == "hyp" and m[1] == label:
            return m[2]
    raise ValueError(f"no leaf bound by {label}")


def conclusion(n):
    """(formula, position) a proof-file node concludes, by the rules."""
    head, args = n[0], n[1:]
    if head == "hyp":
        return args[1], args[2]
    if head in ("bot-c", "bot-i"):
        return args[-2], args[-1]
    if head in ("or-e", "dia-e"):
        return conclusion(args[-1])
    if head == "dia-i":
        f, pos = conclusion(args[1])
        return ("dia", f), pos[: len(pos) - len(args[0])]
    f, pos = conclusion(args[{"or-i1": 1, "or-i2": 1, "imp-i": 1, "box-i": 2}.get(head, 0)])
    if head == "and-i":
        return ("and", f, conclusion(args[1])[0]), pos
    if head in ("and-e1", "and-e2"):
        return f[int(head[-1])], pos
    if head == "or-i1":
        return ("or", f, args[0]), pos
    if head == "or-i2":
        return ("or", args[0], f), pos
    if head == "imp-i":
        ante = args[2] if len(args) == 4 else _bound_formula(args[1], args[0][0])
        return ("imp", ante, f), pos
    if head == "imp-e":
        return f[2], pos
    if head == "box-i":
        return ("box", f), pos[:-1]
    if head == "box-e":
        return f[1], pos + tuple(args[1])
    raise ValueError(f"unknown rule {head!r}")
