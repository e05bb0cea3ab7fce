"""Finite posets over named elements, with a canonical element order.

Every FinPoset stores its elements in a canonical linear extension:
a topological order of the relation with ties broken by element name.
Two structurally equal posets therefore compare equal as values, and
all derived subset bitmasks are reproducible across runs.

Value is the base of every record class: a record holds its fields in
slots and nothing else, and reads what it derives from them off a memo
(memo.keyed) or computes it from the fields on each read.

Relations are tuples of masks, and each routine on them is the one the
package uses: is_transitive, up_sets (every union of the masks: the
up-sets of a preorder, the opens of its topology), transpose, covers,
preorder_closure (Warshall's loop on masks), cycle_pair, poset_of_preorder
(behind order_closure), isomorphism, the search behind poset, lattice
and space isomorphisms, and monotone_maps, the one enumerator of maps
(continuous maps, and lattice homs through their Birkhoff duals).
"""

from heapq import heapify, heappop, heappush
from itertools import product
from operator import attrgetter
from typing import Iterable, Iterator, Optional, Sequence, Tuple

from .bitsets import bits, mask_of
from .errors import BudgetExceeded, CycleError, InvalidValue


class _Record(type):
    """Gives a record class __slots__ for its fields and any slots it names
    itself, so that no record has a __dict__."""

    def __new__(mcls, name, bases, namespace):
        fields = tuple(namespace.get("__annotations__", ()))
        namespace["__slots__"] = fields + namespace.get("__slots__", ())
        namespace["_fields"] = fields
        return super().__new__(mcls, name, bases, namespace)


class Value(metaclass=_Record):
    """Base of the frozen record classes. The fields are the class's own
    annotations, in order, all passed positionally; an instance compares,
    hashes and prints as the tuple of its fields, as a frozen dataclass
    does, and runs the class's __post_init__ check once they are set.
    Fields live in slots."""

    def __init_subclass__(cls):
        fields = cls._fields
        get = attrgetter(*fields)
        key = get if len(fields) > 1 else lambda v: (get(v),)
        cls._check = getattr(cls, "__post_init__", None)

        # closures, not methods reading a class attribute: as fast as a
        # dataclass's generated methods on the law suites' hottest calls
        def __eq__(self, other):
            if other.__class__ is not self.__class__:
                return NotImplemented
            return key(self) == key(other)

        cls.__eq__ = __eq__
        cls.__hash__ = lambda self: hash(key(self))

    def __init__(self, *values):
        fields = self._fields
        if len(values) != len(fields):
            raise TypeError(f"{type(self).__name__} takes {len(fields)} values")
        for name, value in zip(fields, values):
            object.__setattr__(self, name, value)
        check = self._check
        if check is not None:
            check()

    def __repr__(self):
        body = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({body})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class FinPoset(Value):
    """Poset on named elements; down[i] is the bitmask of {j | e_j <= e_i}."""

    elements: Tuple[str, ...]
    down: Tuple[int, ...]

    def __post_init__(self):
        n = len(self.elements)
        if len(self.down) != n:
            raise InvalidValue("down mask count does not match element count")
        if len(set(self.elements)) != n:
            raise InvalidValue("duplicate element names")
        full = (1 << n) - 1
        for i, d in enumerate(self.down):
            if d & ~full:
                raise InvalidValue("down mask out of range")
            if not (d >> i) & 1:
                raise InvalidValue(f"relation not reflexive at {self.elements[i]!r}")
            # canonical order is a linear extension: predecessors sit at lower indices
            if d >> (i + 1):
                raise InvalidValue("element order is not a linear extension")
        if not is_transitive(self.down):
            raise InvalidValue("relation not transitive")

    @property
    def n(self) -> int:
        return len(self.elements)

    def index(self, name: str) -> int:
        return self.elements.index(name)

    def leq_index(self, i: int, j: int) -> bool:
        return bool((self.down[j] >> i) & 1)

    def leq(self, x: str, y: str) -> bool:
        return self.leq_index(self.index(x), self.index(y))

    def pairs(self) -> Tuple[Tuple[str, str], ...]:
        """All comparable pairs (x, y) with x <= y, in index order."""
        out = []
        for j in range(self.n):
            for i in bits(self.down[j]):
                out.append((self.elements[i], self.elements[j]))
        return tuple(out)

    def cover_pairs(self) -> Tuple[Tuple[str, str], ...]:
        return tuple(
            (self.elements[i], self.elements[j])
            for i, j in covers(self.down, transpose(self.down))
        )

    def restrict(self, mask: int) -> "FinPoset":
        """Induced subposet on the elements of `mask` (re-canonicalized)."""
        keep = list(bits(mask))
        names = [self.elements[i] for i in keep]
        pos = {old: new for new, old in enumerate(keep)}
        down = [
            mask_of(pos[j] for j in bits(self.down[i] & mask)) for i in keep
        ]
        return make_poset(names, down)


def is_transitive(masks: Sequence[int]) -> bool:
    """Whether the relation given by down-masks, or by up-masks, is
    transitive: masks[j] lies inside masks[i] for every j in masks[i]. By
    size, so that a smaller mask inside vouches for its own members."""
    for i in sorted(range(len(masks)), key=lambda i: masks[i].bit_count()):
        m = rest = masks[i]
        while rest:
            j = rest.bit_length() - 1
            if masks[j] & ~m:
                return False
            rest ^= 1 << j
            if masks[j] != m:
                rest &= ~masks[j]
    return True


def up_sets(masks: Iterable[int]) -> Tuple[int, ...]:
    """Every union of the masks, the empty one included, in ascending order.
    Given the up-masks of a preorder, these are its up-sets, the opens of
    its topology (Alexandroff); given its down-masks, its down-sets."""
    out = {0}
    for m in masks:
        out |= {s | m for s in out}
    return tuple(sorted(out))


def transpose(masks: Sequence[int]) -> Tuple[int, ...]:
    """The converse of a relation given by masks: bit i of the result's
    entry j is bit j of masks[i], so down-masks become up-masks and back.
    Column j of the masks in binary, masks[n - 1] first, is entry j."""
    n = len(masks)
    rows = "".join(format(m, f"0{n}b") for m in reversed(masks))
    return tuple(int(rows[n - 1 - j :: n], 2) for j in range(n))


def covers(
    down: Sequence[int], up: Sequence[int]
) -> Tuple[Tuple[int, int], ...]:
    """The covering pairs (i, j) of a preorder given by its down-masks and
    up-masks (transpose(down)), by j and then i: i is strictly below j,
    and nothing strictly below j is strictly above i. Below j, climb from
    the highest index to a cover, keep its class and drop all below it: in
    a linear extension, one step per cover."""
    out = []
    for j, d in enumerate(down):
        rest, found = d & ~up[j], 0
        while rest:
            i = rest.bit_length() - 1
            above = up[i] & rest & ~down[i]
            while above:
                i = above.bit_length() - 1
                above = up[i] & rest & ~down[i]
            found |= up[i] & down[i] & rest
            rest &= ~down[i]
        out.extend((i, j) for i in bits(found))
    return tuple(out)


def make_poset(elements: Sequence[str], down: Sequence[int]) -> FinPoset:
    """Build a FinPoset from down-masks in any order, canonicalizing by
    Kahn's algorithm with a heap on names. The input must already be a
    poset; use order_closure for raw pairs."""
    n = len(elements)
    up = transpose(down)
    waiting = [d.bit_count() - 1 for d in down]
    ready = [(elements[i], i) for i in range(n) if not waiting[i]]
    heapify(ready)
    order: list[int] = []
    while ready:
        i = heappop(ready)[1]
        order.append(i)
        for j in bits(up[i] & ~(1 << i)):
            waiting[j] -= 1
            if not waiting[j]:
                heappush(ready, (elements[j], j))
    if len(order) < n:
        raise ValueError("relation is not acyclic")
    # new mask k holds l when down[order[k]] holds order[l]: up, reordered
    moved = transpose([up[i] for i in order])
    return FinPoset(tuple(elements[i] for i in order), tuple(moved[i] for i in order))


def preorder_closure(up: Sequence[int]) -> Tuple[int, ...]:
    """Reflexive-transitive closure of a relation given by up-masks (bit j
    of up[i] means i <= j), in one pass of Warshall's loop on whole masks.
    Cycles are kept, not rejected."""
    up = [m | 1 << i for i, m in enumerate(up)]
    for k in range(len(up)):
        bit, reach = 1 << k, up[k]
        for i, m in enumerate(up):
            if m & bit:
                up[i] = m | reach
    return tuple(up)


def cycle_pair(up: Sequence[int]) -> Optional[Tuple[int, int]]:
    """The first pair i < j that lie above each other in the relation given
    by up-masks (j in up[i] and its converse), or None when it is
    antisymmetric."""
    down = transpose(up)
    for i, m in enumerate(up):
        later = (m & down[i]) >> (i + 1)
        if later:
            return i, i + (later & -later).bit_length()
    return None


def poset_of_preorder(names: Sequence[str], up: Sequence[int]) -> FinPoset:
    """The poset of an antisymmetric preorder given by up-masks, in canonical
    order; CycleError naming the first pair on a cycle otherwise."""
    pair = cycle_pair(up)
    if pair is not None:
        raise CycleError(tuple(names[i] for i in pair))
    return make_poset(names, transpose(up))


def order_closure(
    elements: Sequence[str], pairs: Iterable[Tuple[str, str]]
) -> FinPoset:
    """Reflexive-transitive closure of generating pairs as a FinPoset.

    Raises CycleError if the closure would identify two distinct elements.
    """
    names = list(elements)
    if len(set(names)) != len(names):
        raise ValueError("duplicate element names")
    idx = {x: i for i, x in enumerate(names)}
    n = len(names)
    up = [1 << i for i in range(n)]
    for x, y in pairs:
        if x not in idx or y not in idx:
            raise ValueError(f"pair ({x!r}, {y!r}) mentions unknown element")
        up[idx[x]] |= 1 << idx[y]
    return poset_of_preorder(names, preorder_closure(up))


def chain(names: Sequence[str]) -> FinPoset:
    """Total order with names[0] at the bottom."""
    return order_closure(names, [(names[i], names[i + 1]) for i in range(len(names) - 1)])


def antichain(names: Sequence[str]) -> FinPoset:
    return order_closure(names, [])


def _unvalidated(cls, *values):
    """cls(*values) for a Value class, without its __post_init__ check;
    only for values valid by construction, such as the composite of two
    maps that were validated when they were built."""
    obj = object.__new__(cls)
    for name, value in zip(cls._fields, values):
        object.__setattr__(obj, name, value)
    return obj


def isomorphism(a: Sequence[int], b: Sequence[int]) -> Optional[Tuple[int, ...]]:
    """A bijection f with i below k in a exactly when f[i] is below f[k] in
    b, for two relations given by down-masks (bit i of a[k]: i below k), or
    None. Backtracking assigns the elements of a in index order, each to an
    unused element of b with as many elements below and above it, and
    keeps a choice only while it agrees with every earlier one."""
    n = len(a)
    if len(b) != n:
        return None

    def signatures(down):
        up = transpose(down)
        return [(bin(down[i]).count("1"), bin(up[i]).count("1")) for i in range(n)]

    a_sigs = signatures(a)
    b_sigs = signatures(b)
    if sorted(a_sigs) != sorted(b_sigs):
        return None

    assign = [0] * n
    used = [False] * n

    def extend(i: int) -> bool:
        if i == n:
            return True
        for j in range(n):
            if used[j] or a_sigs[i] != b_sigs[j]:
                continue
            for k in range(i):
                f = assign[k]
                # k below i in a exactly when f below j in b, and the same upwards
                if (a[i] >> k ^ b[j] >> f) & 1 or (a[k] >> i ^ b[f] >> j) & 1:
                    break
            else:
                assign[i] = j
                used[j] = True
                if extend(i + 1):
                    return True
                used[j] = False
        return False

    return tuple(assign) if extend(0) else None


# the most assignments monotone_maps will try
MAX_ASSIGNMENTS = 200_000


def monotone_maps(a: Sequence[int], b: Sequence[int]) -> Iterator[Tuple[int, ...]]:
    """Every assignment f with f[i] below f[j] in b whenever i is below j
    in a, for two relations given by masks (both up-masks or both
    down-masks), in ascending order. Raises BudgetExceeded before the
    first one when there are more than MAX_ASSIGNMENTS assignments."""
    total = len(b) ** len(a)
    if total > MAX_ASSIGNMENTS:
        raise BudgetExceeded(f"{total} assignments exceed the limit {MAX_ASSIGNMENTS}")
    pairs = [(i, j) for i, m in enumerate(a) for j in bits(m)]
    for f in product(range(len(b)), repeat=len(a)):
        if all(b[f[i]] >> f[j] & 1 for i, j in pairs):
            yield f


def poset_isomorphism(p: FinPoset, q: FinPoset) -> Optional[Tuple[int, ...]]:
    """An order isomorphism p -> q as an index assignment, or None."""
    return isomorphism(p.down, q.down)


def poset_isomorphic(p: FinPoset, q: FinPoset) -> bool:
    return poset_isomorphism(p, q) is not None
