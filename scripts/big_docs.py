"""Write the large documents that the lattice and order routines are timed on.

Usage::

    python3 scripts/big_docs.py --out DIR

writes, into DIR:

- ``chain1000.lattice`` and ``chain2000.lattice``: the n-element chains,
  each element covering the one before it;
- ``discrete10.space`` and ``discrete12.space``: the n-point discrete
  spaces, whose open frames are the Boolean lattices of 2^n opens;
- ``fbdl5.lattice``: the free bounded distributive lattice on five
  generators, as the down-sets of the Boolean lattice 2^5 ordered by
  inclusion: 7,581 elements (the Dedekind number M(5), OEIS A000372),
  listed with their 35,512 covering pairs.

The script imports nothing from the package, so the documents do not
depend on the code they time. Element names are short and sort in the
order the elements are listed.
"""

import argparse
import json
import os


def _lattice(name, elements, pairs):
    return (
        'type: "lattice"\n'
        f"name: {json.dumps(name)}\n"
        f"elements: {json.dumps(elements)}\n"
        f"leq: {json.dumps(pairs)}\n"
    )


def chain(n):
    names = [f"c{i:04d}" for i in range(n)]
    return _lattice(f"chain{n}", names, [[a, b] for a, b in zip(names, names[1:])])


def discrete(n):
    points = [f"p{i:02d}" for i in range(n)]
    return (
        'type: "space"\n'
        f'name: "discrete{n}"\n'
        f"points: {json.dumps(points)}\n"
        f"opens: {json.dumps([[p] for p in points])}\n"
    )


def fbdl(generators):
    """The down-sets of the Boolean lattice on `generators` atoms, with
    their covers D < D + {p}, p minimal outside D."""
    points = 1 << generators
    # down[p]: the subsets of p, as a mask over the points
    down = [sum(1 << q for q in range(points) if q & ~p == 0) for p in range(points)]
    sets = {0}
    for m in down:
        sets |= {s | m for s in sets}
    sets = sorted(sets)
    names = {s: f"x{i:04d}" for i, s in enumerate(sets)}
    pairs = [
        [names[s], names[s | 1 << p]]
        for s in sets
        for p in range(points)
        if not s >> p & 1 and down[p] & ~s == 1 << p
    ]
    return _lattice(f"fbdl{generators}", list(names.values()), pairs)


DOCUMENTS = {
    "chain1000.lattice": lambda: chain(1000),
    "chain2000.lattice": lambda: chain(2000),
    "discrete10.space": lambda: discrete(10),
    "discrete12.space": lambda: discrete(12),
    "fbdl5.lattice": lambda: fbdl(5),
}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", required=True, help="directory to write into")
    args = parser.parse_args(argv)
    os.makedirs(args.out, exist_ok=True)
    for filename, make in DOCUMENTS.items():
        with open(os.path.join(args.out, filename), "w", encoding="utf-8") as fh:
            fh.write(make())
        print(os.path.join(args.out, filename))


if __name__ == "__main__":
    main()
