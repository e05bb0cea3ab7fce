"""Small instances that exercise every checker, including ones built to fail.

The good instances here are tiny but genuine: finite sets with the
fresh-point monad, subset orders with closure operators, and the direct
image adjunction of a function between ground sets. The broken ones each
target one checker and document the exact witness that checker reports,
so the tests can prove the checkers are able to say no. None of this is
used by the main constructions.

Finite-set morphisms are triples (source size, target size, assignment);
subset-order morphisms are pairs (smaller mask, larger mask).
"""

from functools import lru_cache
from typing import Optional, Tuple

from stonekit.bitsets import bits, format_subset, mask_of
from stonekit.catengine import (
    AdjunctionInstance,
    AlgebraInstance,
    FunctorInstance,
    MonadInstance,
    NatTransInstance,
    Universe,
    compose_functors,
    identity_functor,
    lift_monad,
    make_monad,
    opposite,
)
from stonekit.spaces import FinSpace, closure_of, preimage_mask


@lru_cache(maxsize=None)
def finset_universe() -> Universe:
    def compose(after, m):
        if m[1] != after[0]:
            raise ValueError("endpoints do not match")
        return (m[0], after[1], tuple(after[2][k] for k in m[2]))

    def invert(m):
        src, tgt, a = m
        if sorted(a) != list(range(tgt)):
            return None
        inv = [0] * tgt
        for i, k in enumerate(a):
            inv[k] = i
        return (tgt, src, tuple(inv))

    return Universe(
        "finite sets",
        lambda n: (n, n, tuple(range(n))),
        compose,
        lambda m: m[0],
        lambda m: m[1],
        invert,
        str,
    )


def all_functions(n_src: int, n_tgt: int) -> Tuple[tuple, ...]:
    """Every finite-set morphism between the two sizes."""
    from itertools import product

    if n_src == 0:
        return ((0, n_tgt, ()),)
    return tuple(
        (n_src, n_tgt, a) for a in product(range(n_tgt), repeat=n_src)
    )


def fresh_point_functor() -> FunctorInstance:
    u = finset_universe()
    return FunctorInstance(
        "add fresh point",
        u,
        u,
        lambda n: n + 1,
        lambda m: (m[0] + 1, m[1] + 1, m[2] + (m[1],)),
    )


def fresh_point_monad() -> MonadInstance:
    """Adjoin one default point; the unit is the inclusion, the
    multiplication merges the two fresh points."""
    return make_monad(
        "fresh point",
        fresh_point_functor(),
        lambda n: (n, n + 1, tuple(range(n))),
        lambda n: (n + 2, n + 1, tuple(range(n)) + (n, n)),
    )


def fresh_point_algebra(n: int, default: int) -> AlgebraInstance:
    """Structure map folding the fresh point onto a chosen default."""
    structure = (n + 1, n, tuple(range(n)) + (default,))
    return AlgebraInstance(fresh_point_monad(), n, structure)


def _tagging(name: str, outer) -> MonadInstance:
    """Each point paired with a tag 0 or 1: G n = 2n, with (t, x) at index
    t * n + x. A comonad on finite sets, built as the monad it is on their
    opposite: the unit is the counit, which forgets the tag, and the
    multiplication the comultiplication, which sends (t, x) to
    (outer(t), (t, x))."""
    u = opposite(finset_universe(), "finite sets reversed")
    functor = FunctorInstance(
        "tag with 0 or 1",
        u,
        u,
        lambda n: 2 * n,
        lambda m: (
            2 * m[0],
            2 * m[1],
            tuple(t * m[1] + v for t in (0, 1) for v in m[2]),
        ),
    )
    return make_monad(
        name,
        functor,
        lambda n: (2 * n, n, tuple(i % n for i in range(2 * n))),
        lambda n: (
            2 * n,
            4 * n,
            tuple(outer(t) * 2 * n + t * n + x for t in (0, 1) for x in range(n)),
        ),
    )


def tagging_comonad() -> MonadInstance:
    """The comonad of pairs with a two-element set: the comultiplication
    copies the tag, (t, x) to (t, (t, x))."""
    return _tagging("tagging", lambda t: t)


# ---------------------------------------------------------------------------
# broken finite-set instances


def reversing_endofunctor() -> FunctorInstance:
    """Keeps objects, reverses every assignment.

    check_functor_identity rejects it: the identity law fails at the first
    object with two points, witness "2".
    """
    u = finset_universe()
    return FunctorInstance(
        "reverse assignments",
        u,
        u,
        lambda n: n,
        lambda m: (m[0], m[1], tuple(reversed(m[2]))),
    )


def misrouted_mult_monad() -> MonadInstance:
    """Fresh-point monad whose multiplication sends the outer fresh point
    to element 0 instead of the merged fresh point.

    check_monad_laws rejects it: the right unit law fails at the first
    object with at least one point, witness "1".
    """
    return make_monad(
        "misrouted fresh point",
        fresh_point_functor(),
        lambda n: (n, n + 1, tuple(range(n))),
        lambda n: (n + 2, n + 1, tuple(range(n)) + (n, 0 if n else n)),
    )


def flipped_tagging_comonad() -> MonadInstance:
    """Tagging whose comultiplication flips the outer tag: (t, x) goes to
    (1 - t, (t, x)).

    check_monad_laws rejects it: the counit after the comultiplication
    (the left unit law) still gives back (t, x), but the mapped counit
    (the right unit law) gives (1 - t, x), and the two routes of
    coassociativity (the associativity law) put 1 - t and t in the middle;
    both fail at the first object with a point, witness "1".
    """
    return _tagging("flipped tagging", lambda t: 1 - t)


def collapsing_transformation() -> NatTransInstance:
    """Sends everything to element 0, pretending to be natural.

    check_naturality rejects it: the square fails at any morphism whose
    value at 0 is not 0, witness the one-point map choosing index 1.
    """
    u = finset_universe()
    return NatTransInstance(
        "collapse to zero",
        identity_functor(u),
        fresh_point_functor(),
        lambda n: (n, n + 1, (0,) * n),
    )


def fresh_swap_transformation() -> NatTransInstance:
    """Swaps element 0 with the fresh point, posing as a map of monads.

    check_monad_morphism rejects it: unit preservation fails at the first
    object with one point, witness "1".
    """
    f = fresh_point_functor()

    def component(n):
        a = list(range(n + 1))
        a[0], a[n] = a[n], a[0]
        return (n + 1, n + 1, tuple(a))

    return NatTransInstance("swap in the fresh point", f, f, component)


def misfolded_algebra() -> AlgebraInstance:
    """Fresh-point structure map on two points that swaps them.

    check_algebra rejects it: the unit law fails because the base points
    are not fixed.
    """
    return AlgebraInstance(fresh_point_monad(), 2, (3, 2, (1, 0, 0)))


def swap_counit_adjunction() -> AdjunctionInstance:
    """Identity functors posing as an adjunction with a swapping counit.

    check_left_triangle and check_right_triangle reject it: both
    triangles fail at the first object with two points, witness "2".
    """
    u = finset_universe()
    one = identity_functor(u)

    def swap(n):
        if n < 2:
            return u.identity(n)
        return (n, n, (1, 0) + tuple(range(2, n)))

    unit = NatTransInstance("pose unit", one, compose_functors(one, one), u.identity)
    counit = NatTransInstance("pose counit", compose_functors(one, one), one, swap)
    return AdjunctionInstance("swap pose", one, one, unit, counit)


# ---------------------------------------------------------------------------
# subset orders, closure operators, the direct image adjunction


@lru_cache(maxsize=None)
def powerset_universe(n: int, names: Optional[Tuple[str, ...]] = None) -> Universe:
    """Subsets of an n-point ground set, one morphism per inclusion."""

    def compose(after, m):
        if m[1] != after[0]:
            raise ValueError("endpoints do not match")
        return (m[0], after[1])

    def label(a):
        if names is not None:
            return format_subset(names, a)
        return repr(a)

    return Universe(
        f"subsets of a {n}-point set",
        lambda a: (a, a),
        compose,
        lambda m: m[0],
        lambda m: m[1],
        lambda m: (m[1], m[0]) if m[0] == m[1] else None,
        label,
    )


def inclusions(n: int) -> Tuple[tuple, ...]:
    """Every morphism of the subset order on n points."""
    return tuple(
        (a, b)
        for a in range(1 << n)
        for b in range(1 << n)
        if a & ~b == 0
    )


def closure_monad(u: Universe, op, name: str) -> MonadInstance:
    """A closure operator as a monad on a subset order."""
    functor = FunctorInstance(name, u, u, op, lambda m: (op(m[0]), op(m[1])))
    return make_monad(
        name,
        functor,
        lambda a: (a, op(a)),
        lambda a: (op(op(a)), op(a)),
    )


def topological_closure_monad(x: FinSpace) -> MonadInstance:
    u = powerset_universe(x.n, x.points)
    return closure_monad(u, lambda a: closure_of(x, a), "topological closure")


def direct_image_adjunction(
    n_src: int, n_tgt: int, assignment: Tuple[int, ...]
) -> AdjunctionInstance:
    """Image below preimage, between the subset orders of a function."""
    low = powerset_universe(n_src)
    high = powerset_universe(n_tgt)

    def img(a):
        return mask_of(assignment[i] for i in bits(a))

    def pre(b):
        return preimage_mask(assignment, b)

    left = FunctorInstance(
        "direct image", low, high, img, lambda m: (img(m[0]), img(m[1]))
    )
    right = FunctorInstance(
        "preimage", high, low, pre, lambda m: (pre(m[0]), pre(m[1]))
    )
    unit = NatTransInstance(
        "grow to preimage of image",
        identity_functor(low),
        compose_functors(right, left),
        lambda a: (a, pre(img(a))),
    )
    counit = NatTransInstance(
        "shrink from image of preimage",
        compose_functors(left, right),
        identity_functor(high),
        lambda b: (img(pre(b)), b),
    )
    return AdjunctionInstance("image below preimage", left, right, unit, counit)


def counit_gap_fixture() -> Tuple[AdjunctionInstance, MonadInstance, AlgebraInstance]:
    """An inverse comparison that must refuse.

    The inclusion of two points into three gives a genuine adjunction, and
    filling in the third point is a genuine closure operator upstairs. But
    the closure of any image contains the missing point, the counit there
    strictly shrinks, and inverse_comparison raises CounitNotIso with the
    filled set as witness.
    """
    adj = direct_image_adjunction(2, 3, (0, 1))
    t = closure_monad(adj.left.target, lambda b: b | 0b100, "fill the third point")
    lifted = lift_monad(adj, t)
    m_alg = AlgebraInstance(lifted, 0b01, (0b01, 0b01))
    return adj, t, m_alg
