"""Closed forms of Birkhoff duality, past the subset cap of the oracles.

For a finite poset P, the down-sets O(P) form a distributive lattice L,
and what the package derives from L is known from P alone: L has one
prime filter per point of P, its join-irreducibles form P again, its
center has one atom per connected component of P, it is Boolean exactly
when P is an antichain, its spectrum is a T0 space on the points of P,
and all its ideals are principal. The oracle side of each check below
reads only P, so it holds on lattices far larger than the twins that
visit all 2^n subsets can reach.
"""

import random

from stonekit.dlat import downset_lattice, ideal_lattice, join_irreducibles, prime_filters
from stonekit.frame import center_lattice, is_boolean, spectrum
from stonekit.order import antichain, chain, order_closure, poset_isomorphic
from stonekit.spaces import is_t0


def _names(n):
    return [chr(ord("a") + i) for i in range(n)]


def _posets():
    """Seeded random posets of 4-9 points, and a chain and an antichain of
    each size."""
    rng = random.Random(20261028)
    posets = []
    for n in range(4, 10):
        names = _names(n)
        pairs = [(x, y) for i, x in enumerate(names) for y in names[i + 1 :]]
        for _ in range(8):
            count = rng.randint(0, min(n + 3, len(pairs)))
            posets.append(order_closure(names, rng.sample(pairs, count)))
        posets += [chain(names), antichain(names)]
    return posets


def _components(p):
    """The connected components of the comparability graph of p."""
    parent = list(range(p.n))

    def root(i):
        while parent[i] != i:
            i = parent[i]
        return i

    for j, d in enumerate(p.down):
        for i in range(p.n):
            if (d >> i) & 1:
                parent[root(i)] = root(j)
    return len({root(i) for i in range(p.n)})


def _down_set_count(p):
    """The down-sets of p, counted over all 2^n subsets."""
    return sum(
        all(not (s >> i) & 1 or p.down[i] & ~s == 0 for i in range(p.n))
        for s in range(1 << p.n)
    )


def test_the_derived_structure_of_a_down_set_lattice_is_read_off_its_poset():
    posets = _posets()
    assert len(posets) == 60
    sizes = []
    for p in posets:
        lat = downset_lattice(p)
        sizes.append(lat.n)
        assert lat.n == _down_set_count(p), p
        assert len(prime_filters(lat)) == p.n, p
        assert poset_isomorphic(join_irreducibles(lat), p), p
        assert center_lattice(lat).n == 2 ** _components(p), p
        assert is_boolean(lat) == all(d == 1 << i for i, d in enumerate(p.down)), p
        space = spectrum(lat)
        assert space.n == p.n and is_t0(space), p
        assert ideal_lattice(lat).n == lat.n, p
    # past the subset cap of 22 elements, up to the Boolean lattice 2^9
    assert min(sizes) == 5 and max(sizes) == 512
