"""A small engine for checking categorical structure by enumeration.

Universes package up composition data for a finite setting; functors,
natural transformations, monads, adjunctions and algebras are bundles of
callables over them. Every law here is checked by running the relevant
diagram at every supplied object or morphism, so a green check is a finite
proof over the chosen enumeration, and a red one carries a witness naming
where the diagram broke; a check over no case is red, with the witness "no
case checked". A comonad is a monad on the opposite universe (`opposite`;
Mac Lane, VI.2): build it there with make_monad, its counit as the unit
and its comultiplication as the multiplication, and check_monad_laws
checks its laws and check_algebra its coalgebras.

The lifting machinery moves a monad across an adjunction L -| R: the
lifted functor is R T L, the unit is R(e at LX) after the adjunction unit,
and the multiplication collapses the middle L R with the counit before
multiplying. A comparison functor turns algebras of the inner monad into
algebras of the lifted one, and is inverted by sending an algebra back
through L, which needs the counit to be invertible at one object; when it
is not, that failure is reported, not papered over.

Contract: objects are hashable values and every component is a pure
function of its object. A natural transformation therefore computes its
component at an object once and returns the stored morphism on every
later call, so a diagram that asks for the same component many times, or
a monad shared by several checks, builds each structure map once. The
store is a memo table keyed by the object (`memo.keyed(memo.itself)`): it
lives as long as its transformation, and `clear_caches` empties it, so the
monads built once at import hold no component across a clear. The
composites the checks form are not re-validated either: the constructors
of the concrete universes validate maps where they are built from raw
data, and a composite of valid maps is valid.
"""

from typing import Callable, Optional, Tuple

from . import memo
from .errors import CounitNotIso, HypothesisFailed, UniverseMismatch
from .order import Value


class Universe(Value):
    """Composition data for one finite category."""

    name: str
    identity: Callable
    compose: Callable
    source: Callable
    target: Callable
    invert: Callable
    label: Callable


class FunctorInstance(Value):
    name: str
    source: Universe
    target: Universe
    on_object: Callable
    on_morphism: Callable


class NatTransInstance(Value):
    """Componentwise morphism between two parallel functors; each
    component is computed once per object and then reused."""

    name: str
    source: FunctorInstance
    target: FunctorInstance
    component: Callable

    def __post_init__(self):
        object.__setattr__(self, "component", memo.keyed(memo.itself)(self.component))


class MonadInstance(Value):
    name: str
    functor: FunctorInstance
    unit: NatTransInstance
    mult: NatTransInstance

    @property
    def universe(self) -> Universe:
        return self.functor.source


class AdjunctionInstance(Value):
    """left -| right, with unit into right(left(-)) and counit out of
    left(right(-))."""

    name: str
    left: FunctorInstance
    right: FunctorInstance
    unit: NatTransInstance
    counit: NatTransInstance

    @property
    def outer(self) -> Universe:
        return self.left.source

    @property
    def inner(self) -> Universe:
        return self.left.target


class AlgebraInstance(Value):
    monad: MonadInstance
    carrier: object
    structure: object


class LawCheck(Value):
    name: str
    ok: bool
    witness: Optional[str]

    def __str__(self) -> str:
        mark = "ok" if self.ok else "FAIL"
        tail = "" if self.witness is None else f" [{self.witness}]"
        return f"{mark:4} {self.name}{tail}"


def opposite(u: Universe, name: str) -> Universe:
    """The universe u with every arrow read backwards: an arrow from x to y
    is an arrow of u from y to x, and composites compose the other way."""
    return Universe(
        name,
        u.identity,
        lambda after, m: u.compose(m, after),
        u.target,
        u.source,
        u.invert,
        u.label,
    )


def identity_functor(u: Universe) -> FunctorInstance:
    return FunctorInstance(f"Id({u.name})", u, u, lambda x: x, lambda f: f)


def compose_functors(g: FunctorInstance, f: FunctorInstance) -> FunctorInstance:
    if f.target is not g.source:
        raise UniverseMismatch("functors do not compose: universes differ")
    return FunctorInstance(
        f"{g.name}.{f.name}",
        f.source,
        g.target,
        lambda x: g.on_object(f.on_object(x)),
        lambda m: g.on_morphism(f.on_morphism(m)),
    )


def make_monad(name, functor, unit_at, mult_at) -> MonadInstance:
    """Assemble a monad from its two component formulas."""
    u = functor.source
    tt = compose_functors(functor, functor)
    unit = NatTransInstance(f"{name}.unit", identity_functor(u), functor, unit_at)
    mult = NatTransInstance(f"{name}.mult", tt, functor, mult_at)
    return MonadInstance(name, functor, unit, mult)


# ---------------------------------------------------------------------------
# law checks


def _all(name, universe, cases) -> LawCheck:
    """Run (ok, witness_object) pairs, reporting the first failure. A law
    over no case fails: it has proved nothing."""
    checked = False
    for ok, at in cases:
        if not ok:
            return LawCheck(name, False, universe.label(at))
        checked = True
    if not checked:
        return LawCheck(name, False, "no case checked")
    return LawCheck(name, True, None)


def require_laws(checks) -> None:
    """Refuse to continue past a failed precondition check."""
    for check in checks:
        if not check.ok:
            raise HypothesisFailed(str(check))


def check_functor_identity(f: FunctorInstance, objects) -> LawCheck:
    """f sends the identity at each object to the identity at its image."""
    src, tgt = f.source, f.target
    cases = (
        (f.on_morphism(src.identity(x)) == tgt.identity(f.on_object(x)), x)
        for x in objects
    )
    return _all(f"{f.name}: identities", src, cases)


def check_functor_composition(f: FunctorInstance, morphisms) -> LawCheck:
    """f preserves the composite of every composable pair of morphisms."""
    src, tgt = f.source, f.target

    def cases():
        by_source = {}
        for m in morphisms:
            by_source.setdefault(src.source(m), []).append(m)
        for m in morphisms:
            for after in by_source.get(src.target(m), ()):
                lhs = f.on_morphism(src.compose(after, m))
                rhs = tgt.compose(f.on_morphism(after), f.on_morphism(m))
                yield lhs == rhs, src.source(m)

    return _all(f"{f.name}: composition", src, cases())


def check_naturality(nt: NatTransInstance, morphisms) -> LawCheck:
    u = nt.source.source
    v = nt.source.target
    cases = (
        (
            v.compose(nt.component(u.target(m)), nt.source.on_morphism(m))
            == v.compose(nt.target.on_morphism(m), nt.component(u.source(m))),
            m,
        )
        for m in morphisms
    )
    return _all(f"{nt.name}: naturality", u, cases)


def check_monad_laws(t: MonadInstance, objects) -> Tuple[LawCheck, ...]:
    u = t.universe
    T, e, m = t.functor, t.unit.component, t.mult.component

    def law(name, cases):
        return _all(f"{t.name}: {name}", u, cases)

    left = law(
        "left unit",
        (
            (
                u.compose(m(x), e(T.on_object(x))) == u.identity(T.on_object(x)),
                x,
            )
            for x in objects
        ),
    )
    right = law(
        "right unit",
        (
            (
                u.compose(m(x), T.on_morphism(e(x))) == u.identity(T.on_object(x)),
                x,
            )
            for x in objects
        ),
    )
    assoc = law(
        "associativity",
        (
            (
                u.compose(m(x), m(T.on_object(x)))
                == u.compose(m(x), T.on_morphism(m(x))),
                x,
            )
            for x in objects
        ),
    )
    return left, right, assoc


def check_left_triangle(adj: AdjunctionInstance, outer_objects) -> LawCheck:
    """The triangle identity of the left adjoint: the counit at L x after
    L of the unit at x is the identity, at every supplied outer object."""
    a, L = adj.inner, adj.left
    eta, eps = adj.unit.component, adj.counit.component
    cases = (
        (
            a.compose(eps(L.on_object(x)), L.on_morphism(eta(x)))
            == a.identity(L.on_object(x)),
            x,
        )
        for x in outer_objects
    )
    return _all(f"{adj.name}: counit.L after L.unit", adj.outer, cases)


def check_right_triangle(adj: AdjunctionInstance, inner_objects) -> LawCheck:
    """The triangle identity of the right adjoint: R of the counit at y
    after the unit at R y is the identity, at every supplied inner object."""
    b, R = adj.outer, adj.right
    eta, eps = adj.unit.component, adj.counit.component
    cases = (
        (
            b.compose(R.on_morphism(eps(y)), eta(R.on_object(y)))
            == b.identity(R.on_object(y)),
            y,
        )
        for y in inner_objects
    )
    return _all(f"{adj.name}: R.counit after unit.R", adj.inner, cases)


def check_algebra(alg: AlgebraInstance) -> Tuple[LawCheck, ...]:
    t = alg.monad
    u = t.universe
    x, a = alg.carrier, alg.structure
    unit = LawCheck(
        f"{t.name}-algebra on {u.label(x)}: unit",
        u.compose(a, t.unit.component(x)) == u.identity(x),
        None,
    )
    assoc = LawCheck(
        f"{t.name}-algebra on {u.label(x)}: associativity",
        u.compose(a, t.functor.on_morphism(a)) == u.compose(a, t.mult.component(x)),
        None,
    )
    return unit, assoc


def check_algebra_morphism(alg1: AlgebraInstance, alg2: AlgebraInstance, h) -> bool:
    """h carries one structure map to the other."""
    u = alg1.monad.universe
    return u.compose(h, alg1.structure) == u.compose(
        alg2.structure, alg1.monad.functor.on_morphism(h)
    )


def check_monad_morphism(
    nt: NatTransInstance, src: MonadInstance, tgt: MonadInstance, objects
) -> Tuple[LawCheck, ...]:
    """Unit and multiplication squares for a transformation of monads."""
    u = src.universe
    s = nt.component
    unit = _all(
        f"{nt.name}: preserves unit",
        u,
        (
            (
                u.compose(s(x), src.unit.component(x)) == tgt.unit.component(x),
                x,
            )
            for x in objects
        ),
    )

    def mult_cases():
        for x in objects:
            lhs = u.compose(s(x), src.mult.component(x))
            rhs = u.compose(
                tgt.mult.component(x),
                u.compose(
                    s(tgt.functor.on_object(x)),
                    src.functor.on_morphism(s(x)),
                ),
            )
            yield lhs == rhs, x

    mult = _all(f"{nt.name}: preserves multiplication", u, mult_cases())
    return unit, mult


# ---------------------------------------------------------------------------
# lifting a monad across an adjunction


def lift_functor(adj: AdjunctionInstance, h: FunctorInstance) -> FunctorInstance:
    """R H L, the image of an inner endofunctor on the outer side."""
    return compose_functors(adj.right, compose_functors(h, adj.left))


def lift_monad(
    adj: AdjunctionInstance, t: MonadInstance, name: Optional[str] = None
) -> MonadInstance:
    """Monad R T L on the outer universe.

    The unit applies the inner unit under R after the adjunction unit; the
    multiplication first removes the inner L R with the counit, then
    multiplies.
    """
    a, b = adj.inner, adj.outer
    L, R = adj.left, adj.right
    eta, eps = adj.unit.component, adj.counit.component
    T, e, m = t.functor, t.unit.component, t.mult.component

    def unit_at(x):
        lx = L.on_object(x)
        return b.compose(R.on_morphism(e(lx)), eta(x))

    def mult_at(x):
        lx = L.on_object(x)
        collapse = T.on_morphism(eps(T.on_object(lx)))
        return b.compose(R.on_morphism(m(lx)), R.on_morphism(collapse))

    return make_monad(name or f"lift({t.name})", lift_functor(adj, T), unit_at, mult_at)


def lift_law(adj: AdjunctionInstance, t: MonadInstance) -> NatTransInstance:
    """The comparison M R => R T, given by R T applied to the counit. It
    holds its own component table, so build it once and pass it to
    check_lift_law and comparison_algebra."""
    R = adj.right
    T = t.functor
    m_functor = lift_functor(adj, T)
    return NatTransInstance(
        f"lift-law({t.name})",
        compose_functors(m_functor, R),
        compose_functors(R, T),
        lambda y: R.on_morphism(T.on_morphism(adj.counit.component(y))),
    )


def check_lift_law(
    adj: AdjunctionInstance,
    t: MonadInstance,
    law: NatTransInstance,
    m: MonadInstance,
    objects,
) -> Tuple[LawCheck, ...]:
    """The two coherence diagrams tying m, the lift of t, to t through
    law, its lift law (lift_law)."""
    b = adj.outer
    R = adj.right
    lam = law.component

    def unit_cases():
        for y in objects:
            ry = R.on_object(y)
            lhs = b.compose(lam(y), m.unit.component(ry))
            rhs = R.on_morphism(t.unit.component(y))
            yield lhs == rhs, y

    def mult_cases():
        for y in objects:
            ry = R.on_object(y)
            ty = t.functor.on_object(y)
            lhs = b.compose(lam(y), m.mult.component(ry))
            rhs = b.compose(
                R.on_morphism(t.mult.component(y)),
                b.compose(lam(ty), m.functor.on_morphism(lam(y))),
            )
            yield lhs == rhs, y

    a = adj.inner
    return (
        _all(f"{law.name}: unit square", a, unit_cases()),
        _all(f"{law.name}: multiplication square", a, mult_cases()),
    )


def comparison_algebra(
    adj: AdjunctionInstance,
    law: NatTransInstance,
    m: MonadInstance,
    alg: AlgebraInstance,
) -> AlgebraInstance:
    """Send an inner algebra across R, twisting by the lift law."""
    b = adj.outer
    R = adj.right
    lam = law.component
    carrier = R.on_object(alg.carrier)
    structure = b.compose(R.on_morphism(alg.structure), lam(alg.carrier))
    return AlgebraInstance(m, carrier, structure)


def inverse_comparison(
    adj: AdjunctionInstance,
    t: MonadInstance,
    alg: AlgebraInstance,
) -> AlgebraInstance:
    """Send an outer algebra back across L.

    Needs the counit to be invertible at T L of the carrier; refusal is
    explicit when it is not.
    """
    a = adj.inner
    L = adj.left
    T = t.functor
    ly = L.on_object(alg.carrier)
    eps = adj.counit.component(T.on_object(ly))
    backwards = a.invert(eps)
    if backwards is None:
        raise CounitNotIso(a.label(T.on_object(ly)))
    structure = a.compose(L.on_morphism(alg.structure), backwards)
    return AlgebraInstance(t, ly, structure)


def lift_monad_morphism(
    adj: AdjunctionInstance,
    sigma: NatTransInstance,
    src_lifted: MonadInstance,
    tgt_lifted: MonadInstance,
) -> NatTransInstance:
    """R sigma L, the outer image of an inner transformation of monads."""
    L, R = adj.left, adj.right
    return NatTransInstance(
        f"lift({sigma.name})",
        src_lifted.functor,
        tgt_lifted.functor,
        lambda x: R.on_morphism(sigma.component(L.on_object(x))),
    )


def lift_composite_iso(
    adj: AdjunctionInstance,
    outer_part: FunctorInstance,
    inner_part: FunctorInstance,
) -> NatTransInstance:
    """Collapse lift(N) after lift(T) onto lift(N T).

    The component applies R N to the counit at T L; the tests check it is
    an isomorphism wherever the counit is.
    """
    L, R = adj.left, adj.right
    N, T = outer_part, inner_part
    lifted_n = lift_functor(adj, N)
    lifted_t = lift_functor(adj, T)
    lifted_nt = lift_functor(adj, compose_functors(N, T))
    return NatTransInstance(
        f"collapse({N.name}.{T.name})",
        compose_functors(lifted_n, lifted_t),
        lifted_nt,
        lambda x: R.on_morphism(
            N.on_morphism(adj.counit.component(T.on_object(L.on_object(x))))
        ),
    )
