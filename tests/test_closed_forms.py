"""Closed forms of Birkhoff duality, past the subset cap of the oracles.

For a finite poset P, the down-sets O(P) form a distributive lattice L,
and what the package derives from L is known from P alone: L has one
prime filter per point of P, its join-irreducibles form P again, its
center has one atom per connected component of P, it is Boolean exactly
when P is an antichain, its spectrum is a T0 space on the points of P
whose specialization order is the opposite of P, all its ideals are
principal (so L is its own ideal lattice), and way-below is its order.
The lattice homs O(P) -> O(Q) are the monotone maps Q -> P, read
backwards. The oracle side of each check below reads only P (and Q), so
it holds on lattices far larger than the twins that visit all 2^n
subsets can reach.
"""

import random
from itertools import product

import pytest

from stonekit.bitsets import bits
from stonekit.dlat import (
    all_lattice_homs,
    downset_lattice,
    downset_view,
    ideal_lattice,
    join_irreducibles,
    lattice_isomorphism,
    prime_filters,
)
from stonekit.errors import BudgetExceeded
from stonekit.frame import (
    WAY_BELOW_MAX_ELEMENTS,
    center_lattice,
    center_view,
    complemented_mask,
    is_boolean,
    spectrum,
    way_below,
)
from stonekit.order import (
    antichain,
    chain,
    make_poset,
    order_closure,
    poset_isomorphic,
    poset_of_preorder,
    transpose,
)
from stonekit.spaces import is_t0
from stonekit.universes import all_posets_upto


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
    """The number of connected components of the comparability graph of p."""
    return len(_component_masks(p))


def _component_masks(p):
    """The connected components of the comparability graph of p, as masks."""
    parent = list(range(p.n))

    def root(i):
        while parent[i] != i:
            i = parent[i]
        return i

    for j, d in enumerate(p.down):
        for i in range(p.n):
            if (d >> i) & 1:
                parent[root(i)] = root(j)
    parts = {}
    for i in range(p.n):
        parts[root(i)] = parts.get(root(i), 0) | 1 << i
    return list(parts.values())


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


def _opposite(p):
    return make_poset(p.elements, transpose(p.down))


def test_the_spectrum_ideals_and_way_below_are_read_off_the_poset():
    self_dual = 0
    for p in _posets():
        lat = downset_lattice(p)
        # a filter lies below the filters that contain it, and the prime
        # filter of the down-sets holding x grows as x goes down
        space = spectrum(lat)
        order = poset_of_preorder(space.points, space.up)
        assert poset_isomorphic(order, _opposite(p)), p
        self_dual += poset_isomorphic(p, _opposite(p))
        assert lattice_isomorphism(ideal_lattice(lat), lat) is not None, p
        if lat.n > WAY_BELOW_MAX_ELEMENTS:
            with pytest.raises(BudgetExceeded):
                way_below(lat)
        else:
            assert way_below(lat).below == lat.poset.down, p
    # the opposite is not P itself up to isomorphism on every poset
    assert 0 < self_dual < 60


def _monotone_maps(q, p):
    """The maps f: q -> p with f(i) <= f(j) whenever i <= j, counted over
    all |p|^|q| maps."""
    pairs = [(i, j) for j in range(q.n) for i in range(q.n) if q.leq_index(i, j)]
    return sum(
        all(p.leq_index(f[i], f[j]) for i, j in pairs)
        for f in product(range(p.n), repeat=q.n)
    )


def test_lattice_homs_between_down_set_lattices_are_monotone_maps_back():
    posets = all_posets_upto(3)
    assert len(posets) == 1 + 1 + 3 + 19
    lattices = [downset_lattice(p) for p in posets]
    counts = set()
    for (p, lp), (q, lq) in product(zip(posets, lattices), repeat=2):
        count = len(all_lattice_homs(lp, lq))
        assert count == _monotone_maps(q, p), (p, q)
        counts.add(count)
    assert max(counts) == 27


def test_meets_joins_and_complements_of_a_down_set_lattice_are_set_operations():
    # meets and joins of O(P) are intersections and unions of down-sets, on
    # every pair up to 64 elements and 3,000 seeded pairs past that; the
    # complemented down-sets are the 2^c unions of the components of P
    rng = random.Random(20261033)
    for p in _posets():
        view = downset_view(p)
        lat, masks = view.lattice, view.masks
        pairs = list(product(range(lat.n), repeat=2))
        if lat.n > 64:
            pairs = rng.sample(pairs, 3000)
        for i, j in pairs:
            assert masks[lat.meet(i, j)] == masks[i] & masks[j], p
            assert masks[lat.join(i, j)] == masks[i] | masks[j], p
        parts = _component_masks(p)
        unions = {sum(m for k, m in enumerate(parts) if pick >> k & 1) for pick in range(1 << len(parts))}
        complemented = {masks[a] for a in bits(complemented_mask(lat))}
        assert len(complemented) == 2 ** len(parts) and complemented == unions, p
        center = center_view(lat)
        assert {masks[a] for a in center.inclusion.assignment} == unions, p
