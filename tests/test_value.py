"""The `Value` base of the record classes, against frozen dataclasses.

Every record class of the package derives from `order.Value`. Each one is
compared here with a twin that `dataclasses.make_dataclass` builds frozen
from the same field values: equality, hash and repr must agree, the
fields stay frozen, the arity is exact, and `__post_init__` still rejects
bad input. Records are slotted: no instance has a `__dict__`, and a
record holds its fields and nothing else, save the one slot listed in
EXTRA_SLOTS with its reason.
"""

import dataclasses
from functools import cached_property
from itertools import product

import pytest

from stonekit.catengine import (
    AdjunctionInstance,
    AlgebraInstance,
    LawCheck,
)
from stonekit.dlat import (
    TWO,
    DistLattice,
    LatticeHom,
    downset_view,
    identity_hom,
)
from stonekit.errors import InvalidValue, NotALattice, NotATopology
from stonekit.frame import (
    StablyCompactReport,
    center_view,
    spectrum_view,
    stably_compact_report,
    way_below,
)
from stonekit.instances import (
    FILTER_MONAD_ON_SPACES,
    FRAME_UNIVERSE,
    IDEAL_MONAD_ON_FRAMES,
    LAWS,
    OPEN_SPECTRUM_ADJUNCTION,
    SPACE_UNIVERSE,
)
from stonekit.order import (
    FinPoset,
    Value,
    _unvalidated,
    antichain,
    chain,
)
from stonekit.spaces import (
    ContinuousMap,
    FinSpace,
    discrete_space,
    identity_map,
    open_frame_view,
    open_set_frame,
    sierpinski,
)
from stonekit.topspace import (
    canonical_algebra,
    compactification_square,
    filter_space_view,
)


def samples() -> list:
    """At least two unequal instances of every record class."""
    s, d = sierpinski(), discrete_space(["a", "b"])
    two, three = TWO, open_set_frame(s)
    f, i = FILTER_MONAD_ON_SPACES, IDEAL_MONAD_ON_FRAMES
    adj = OPEN_SPECTRUM_ADJUNCTION
    return [
        chain(["a", "b"]),
        antichain(["a", "b"]),
        SPACE_UNIVERSE,
        FRAME_UNIVERSE,
        f.functor,
        i.functor,
        f.unit,
        f.mult,
        f,
        i,
        adj,
        AdjunctionInstance("O -| pt'", adj.left, adj.right, adj.unit, adj.counit),
        AlgebraInstance(f, s, canonical_algebra(s)),
        AlgebraInstance(f, d, canonical_algebra(d)),
        LawCheck("unit", True, None),
        LawCheck("unit", False, "at x"),
        two,
        three,
        identity_hom(two),
        identity_hom(three),
        downset_view(chain(["a", "b"])),
        open_frame_view(d),
        s,
        d,
        identity_map(s),
        identity_map(d),
        way_below(two),
        way_below(three),
        stably_compact_report(two),
        StablyCompactReport(True, True, False, ("a", "b")),
        center_view(two),
        center_view(three),
        spectrum_view(two),
        spectrum_view(three),
        filter_space_view(s),
        filter_space_view(d),
        compactification_square(s),
        compactification_square(d),
        LAWS[0],
        LAWS[-1],
    ]


def record_classes() -> list:
    return sorted(Value.__subclasses__(), key=lambda cls: cls.__name__)


def by_class() -> dict:
    out = {}
    for value in samples():
        out.setdefault(type(value), []).append(value)
    return out


def field_values(value) -> list:
    return [getattr(value, name) for name in type(value)._fields]


def test_every_record_class_has_unequal_samples():
    assert len(record_classes()) == 19
    groups = by_class()
    assert sorted(groups, key=lambda cls: cls.__name__) == record_classes()
    for cls, values in groups.items():
        assert any(a != b for a, b in product(values, repeat=2)), cls.__name__


@pytest.mark.parametrize("cls", record_classes(), ids=lambda cls: cls.__name__)
def test_equality_hash_and_repr_agree_with_a_frozen_dataclass(cls):
    values = by_class()[cls]
    # a copy from the same field values is equal but not the same object
    values += [_unvalidated(cls, *field_values(v)) for v in values]
    twin = dataclasses.make_dataclass(cls.__name__, cls._fields, frozen=True)
    twins = [twin(*field_values(v)) for v in values]
    for v, t in zip(values, twins):
        assert hash(v) == hash(t)
        assert repr(v) == repr(t)
        assert v.__eq__(t) is NotImplemented and v != t
    for (a, ta), (b, tb) in product(zip(values, twins), repeat=2):
        assert (a == b) == (ta == tb)
        assert (a != b) == (ta != tb)
    assert sum(a == b for a, b in product(values, repeat=2)) > len(values)


@pytest.mark.parametrize("cls", record_classes(), ids=lambda cls: cls.__name__)
def test_fields_are_frozen_and_the_arity_is_exact(cls):
    value = by_class()[cls][0]
    fields = field_values(value)
    for name in cls._fields:
        with pytest.raises(AttributeError):
            setattr(value, name, None)
        with pytest.raises(AttributeError):
            delattr(value, name)
    with pytest.raises(AttributeError):
        value.extra = None
    assert field_values(value) == fields
    with pytest.raises(TypeError):
        cls(*fields[:-1])
    with pytest.raises(TypeError):
        cls(*fields, None)
    with pytest.raises(TypeError):
        cls(**dict(zip(cls._fields, fields)))


def bad_inputs():
    s, d = sierpinski(), discrete_space(["a", "b"])
    two = TWO
    return {
        FinPoset: (lambda: FinPoset(("a", "a"), (1, 2)), "duplicate element names"),
        DistLattice: (lambda: DistLattice(antichain(["a", "b"])), "no meet"),
        LatticeHom: (lambda: LatticeHom(two, two, (1, 1)), "fails bottom"),
        FinSpace: (lambda: FinSpace(("a", "b"), (2, 2)), "not reflexive at 'a'"),
        ContinuousMap: (lambda: ContinuousMap(s, d, (0, 1)), "is not open"),
    }


def test_post_init_still_rejects_bad_input():
    cases = bad_inputs()
    # NatTransInstance's __post_init__ memoises its component, it checks nothing
    checking = [c for c in record_classes() if "__post_init__" in vars(c)]
    assert sorted(cases, key=lambda c: c.__name__) == [
        c for c in checking if c.__name__ != "NatTransInstance"
    ]
    for cls, (build, message) in cases.items():
        with pytest.raises((InvalidValue, NotALattice, NotATopology), match=message):
            build()
    assert callable(FILTER_MONAD_ON_SPACES.unit.component.cache_info)


def test_no_record_has_an_instance_dict():
    for value in samples():
        assert not hasattr(value, "__dict__"), type(value).__name__
        with pytest.raises(AttributeError):
            value.extra = None


def test_no_record_class_uses_cached_property():
    # cached_property stores its result in the instance dict
    for cls in record_classes():
        for klass in cls.__mro__:
            cached = [k for k, v in vars(klass).items() if isinstance(v, cached_property)]
            assert cached == [], f"{cls.__name__}: {cached}"


# the slots of a record class that are not fields, with their reason
EXTRA_SLOTS = {
    # the Shape of its order, which holds its tables: the order fixes it, so
    # it adds nothing to the value, and the lattices of one order hold one
    "DistLattice": ("shape",),
}


def test_a_record_holds_its_fields_and_nothing_else():
    assert Value.__slots__ == ()
    classes, found = [Value], []
    while classes:
        subclasses = classes.pop().__subclasses__()
        classes += subclasses
        found += subclasses
    assert sorted(found, key=lambda cls: cls.__name__) == record_classes()
    for cls in found:
        assert cls.__bases__ == (Value,), cls.__name__
        extra = EXTRA_SLOTS.get(cls.__name__, ())
        assert cls.__slots__ == cls._fields + extra, cls.__name__
