"""Lifting the ideal monad across the open-set / spectrum adjunction.

The ideal monad lives on locales. Pushing it through the adjunction
gives a monad on spaces, and at finite scale that lifted monad is the
open prime filter monad on the nose: the pairing map matches them
point for point. Lifting the complemented-ideal composite instead
yields the compact Hausdorff reflection.

Run with: python3 demos/lifting_walkthrough.py
"""

from stonekit import (
    COMPACT_REFLECTION_MONAD,
    FILTER_MONAD_ON_SPACES,
    LIFTED_IDEAL_MONAD,
    all_spaces,
    check_monad_laws,
    discrete_space,
    pairing_map,
    sierpinski,
)
from stonekit.spaces import compose_maps
from stonekit.topspace import unit_map


def main() -> None:
    m = LIFTED_IDEAL_MONAD
    f = FILTER_MONAD_ON_SPACES

    x = sierpinski()
    print(f"Lifted ideal monad on the Sierpinski space: {m.functor.on_object(x).n} points")
    print(f"Filter monad on the same space:             {f.functor.on_object(x).n} points")

    p = pairing_map(x)
    routed = compose_maps(p, unit_map(x))
    print(f"Pairing transports the filter unit onto the lifted unit: "
          f"{routed == m.unit.component(x)}")
    print()

    pool = all_spaces(2)
    checks = check_monad_laws(m, pool)
    print(f"Monad laws for the lifted monad over {len(pool)} two-point spaces:")
    for check in checks:
        print(f"  {check}")
    print()

    beta = COMPACT_REFLECTION_MONAD
    two = discrete_space(("a", "b"))
    print("The compact reflection keeps finite discrete spaces fixed:")
    print(f"  beta of a 2-point discrete space has "
          f"{beta.functor.on_object(two).n} points")
    print(f"  beta of the Sierpinski space has "
          f"{beta.functor.on_object(x).n} point (the top collapses in)")


if __name__ == "__main__":
    main()
