"""Seeded generator of stonekit documents whose answers are known.

Every document is built from a random finite poset Q, so the answers the
CLI must print can be computed from Q directly, without stonekit:

- a space document is the Alexandrov topology of a preorder whose T0
  quotient is Q: some points of Q are doubled, and the opens are the
  up-sets. Its frame has as many opens as Q has down-sets;
- a lattice document is the down-set lattice D(Q), ordered by inclusion.

The answers used as oracles are the finite-scale facts the package itself
documents: a finite space has one open prime filter per T0 class, its
Hausdorff and compact reflections have one point per connected component,
the spectrum of D(Q) has |Q| points, the centre of D(Q) has 2^(components)
elements, every ideal of a finite lattice is principal, and way-below
coincides with the order.

Sizes are exact, not sampled: each slot of a batch asks for a poset with a
given element count and a given number of down-sets, and the seed only
chooses which such poset, how its points are named and in which order
they are listed. That keeps the cost of a batch nearly the same for
every seed.

Run ``python3 perfbench/docgen.py --seed 1 --out DIR`` to write one batch.
"""

import argparse
import json
import os
import random
from dataclasses import dataclass
from typing import List, Sequence, Tuple

# (subcommand, kind, |Q|, down-sets of Q, doubled points).  For a space the
# down-set count is the number of opens; for a lattice it is the element
# count.  Limits that keep the run bounded and the known defects visible:
# `cechstone` stays at 7 points or fewer (its memory grows steeply beyond),
# `waybelow` and `ideals` build tables over all 2^n subsets, so their
# lattices stay near 20 elements, and no lattice has 24 to 63 elements.
SLOTS: Tuple[Tuple[str, str, int, int, int], ...] = (
    ("filters", "space", 5, 16, 1),
    ("filters", "space", 6, 32, 1),
    ("filters", "space", 7, 64, 1),
    ("filters", "space", 8, 128, 1),
    ("filters", "space", 9, 256, 1),
    ("sobrify", "space", 6, 32, 2),
    ("sobrify", "space", 8, 128, 2),
    ("t0", "space", 6, 32, 2),
    ("t0", "space", 8, 128, 2),
    ("hausdorff", "space", 6, 32, 2),
    ("hausdorff", "space", 8, 128, 2),
    ("cechstone", "space", 5, 16, 1),
    ("cechstone", "space", 7, 128, 0),
    ("validate", "space", 9, 256, 1),
    ("spectrum", "lattice", 6, 32, 0),
    ("spectrum", "lattice", 8, 128, 0),
    ("center", "lattice", 6, 32, 0),
    ("center", "lattice", 8, 128, 0),
    ("ideals", "lattice", 5, 16, 0),
    ("ideals", "lattice", 7, 20, 0),
    ("waybelow", "lattice", 5, 16, 0),
    ("waybelow", "lattice", 6, 18, 0),
    ("validate", "lattice", 8, 128, 0),
)

# The Boolean lattice on 64 elements: its way-below pairs are the 3^6
# inclusions, but `waybelow` allocates a table over all 2^64 subsets and
# fails.  It stays in every batch so that the failure is counted.
BOOLEAN64 = ("waybelow", "lattice", 6, 64, 0)


@dataclass(frozen=True)
class Doc:
    """One generated document, the subcommand to run on it and its answer."""

    filename: str
    command: str
    text: str
    summary: str


def closed_down(k: int, cover_pick: Sequence[Tuple[int, int]]) -> List[int]:
    """Down-masks of the order generated by pairs (i, j), i below j, i < j."""
    down = [1 << i for i in range(k)]
    for i, j in cover_pick:
        down[j] |= 1 << i
    for j in range(k):  # pairs go up in index order, so one pass closes them
        for i in range(j):
            if (down[j] >> i) & 1:
                down[j] |= down[i]
    return down


def downsets(down: Sequence[int]) -> List[int]:
    k = len(down)
    return [
        m
        for m in range(1 << k)
        if all(down[i] & ~m == 0 for i in range(k) if (m >> i) & 1)
    ]


def components(down: Sequence[int]) -> int:
    k = len(down)
    parent = list(range(k))

    def root(i: int) -> int:
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for j in range(k):
        for i in range(k):
            if (down[j] >> i) & 1:
                parent[root(i)] = root(j)
    return len({root(i) for i in range(k)})


def random_poset(rng: random.Random, k: int, target: int) -> List[int]:
    """A random poset on k elements with exactly `target` down-sets."""
    pairs = [(i, j) for j in range(k) for i in range(j)]
    for _ in range(200_000):
        density = rng.random() * 0.5
        down = closed_down(k, [p for p in pairs if rng.random() < density])
        if len(downsets(down)) == target:
            return down
    raise ValueError(f"no poset on {k} elements with {target} down-sets")


def _names(rng: random.Random, prefix: str, count: int) -> List[str]:
    labels = [f"{prefix}{i}" for i in range(count)]
    rng.shuffle(labels)
    return labels


def _doc_line(key: str, value) -> str:
    return f"{key}: {json.dumps(value)}"


def space_doc(rng: random.Random, name: str, k: int, target: int, doubled: int):
    """Space whose T0 quotient has k points and `target` opens."""
    down = random_poset(rng, k, target)
    owner = list(range(k)) + rng.sample(range(k), doubled)
    rng.shuffle(owner)
    labels = _names(rng, "x", len(owner))
    # the basis: the up-closure of each point, i.e. its minimal neighbourhood
    basis = [
        sorted(labels[q] for q in range(len(owner)) if (down[owner[q]] >> owner[p]) & 1)
        for p in range(len(owner))
    ]
    rng.shuffle(basis)
    text = "\n".join(
        [
            _doc_line("type", "space"),
            _doc_line("name", name),
            _doc_line("points", labels),
            _doc_line("opens", basis),
        ]
    ) + "\n"
    facts = {
        "n": len(owner),
        "classes": k,
        "opens": target,
        "components": components(down),
    }
    return text, facts


def lattice_doc(rng: random.Random, name: str, k: int, target: int):
    """The down-set lattice of a random poset with k elements, `target` in all."""
    down = random_poset(rng, k, target)
    sets = downsets(down)
    labels = _names(rng, "e", len(sets))
    label = dict(zip(sets, labels))
    covers = [
        [label[m], label[m | (1 << i)]]
        for m in sets
        for i in range(k)
        if not (m >> i) & 1 and (m | (1 << i)) in label
    ]
    rng.shuffle(covers)
    order = labels[:]
    rng.shuffle(order)
    text = "\n".join(
        [
            _doc_line("type", "lattice"),
            _doc_line("name", name),
            _doc_line("elements", order),
            _doc_line("leq", covers),
        ]
    ) + "\n"
    facts = {
        "points": k,
        "elements": target,
        "components": components(down),
        "boolean": all(d == 1 << i for i, d in enumerate(down)),
        "pairs": sum(1 for a in sets for b in sets if a & ~b == 0),
    }
    return text, facts


def expected_summary(command: str, name: str, f: dict) -> str:
    """The first line the CLI must print for this document."""
    if command == "filters":
        return f"# filters: {f['classes']} filters, {f['opens']} opens"
    if command == "sobrify":
        verdict = "already sober" if f["n"] == f["classes"] else "points adjusted"
        return f"# sobrification: {f['n']} -> {f['classes']} points, {verdict}"
    if command == "t0":
        return f"# t0: {f['n']} -> {f['classes']} points"
    if command == "hausdorff":
        return f"# hausdorff: {f['n']} -> {f['components']} points, discrete"
    if command == "cechstone":
        c = f["components"]
        return f'# cechstone "{name}": both sides: {c} point{"s" if c != 1 else ""}, ISO'
    if command == "spectrum":
        return f"# spectrum: {f['points']} points, {f['elements']} opens"
    if command == "ideals":
        n = f["elements"]
        return f"# ideals: {n} ideals of {n} elements, all principal"
    if command == "center":
        return f"# center: {2 ** f['components']} of {f['elements']} elements complemented"
    if command == "waybelow":
        regular = "yes" if f["boolean"] else "no"
        return (
            f'# waybelow of "{name}": {f["pairs"]} pairs; '
            f"stably compact: yes; regular: {regular}"
        )
    if command == "validate" and "opens" in f:
        t0 = "T0" if f["n"] == f["classes"] else "not T0"
        return f'# space "{name}": {f["n"]} points, {f["opens"]} opens, {t0}'
    if command == "validate":
        flags = "Boolean, distributive" if f["boolean"] else "distributive"
        return f'# lattice "{name}": {f["elements"]} elements, {flags}'
    raise ValueError(f"no oracle for {command!r}")


def make_batch(seed: int) -> List[Doc]:
    """The documents of one compute-docs batch; the same seed, the same batch."""
    rng = random.Random(seed)
    docs = []
    for i, (command, kind, k, target, doubled) in enumerate(SLOTS + (BOOLEAN64,)):
        name = f"doc{i:02d}-{command}-{kind}-{target}"
        if kind == "space":
            text, facts = space_doc(rng, name, k, target, doubled)
        else:
            text, facts = lattice_doc(rng, name, k, target)
        summary = expected_summary(command, name, facts)
        docs.append(Doc(f"{name}.{kind}", command, text, summary))
    return docs


def write_batch(docs: Sequence[Doc], out_dir: str) -> None:
    os.makedirs(out_dir, exist_ok=True)
    for doc in docs:
        with open(os.path.join(out_dir, doc.filename), "w", encoding="utf-8") as fh:
            fh.write(doc.text)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args()
    docs = make_batch(args.seed)
    write_batch(docs, args.out)
    for doc in docs:
        print(f"{doc.command}\t{doc.filename}\t{doc.summary}")


if __name__ == "__main__":
    main()
