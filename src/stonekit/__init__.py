"""stonekit: finite lattice/topology duality with exhaustively checked laws.

The package works at desk scale: posets and distributive lattices up to 16
elements, topological spaces up to a handful of points. At that scale every
construction of the ideal monad, the open-prime-filter monad, the open-set /
spectrum adjunction and the generic monad-lifting machinery can be built
explicitly and every law verified by enumeration rather than trusted.
"""

from .errors import (
    BudgetExceeded,
    CounitNotIso,
    CycleError,
    ForeignIdeal,
    HypothesisFailed,
    InvalidValue,
    InvariantViolated,
    NoCanonicalAlgebra,
    NotALattice,
    NotATopology,
    NotDistributive,
    ParseError,
    StonekitError,
    UniverseMismatch,
)
from .memo import clear_caches
from .order import (
    FinPoset,
    MonotoneMap,
    antichain,
    chain,
    order_closure,
    poset_isomorphic,
    poset_isomorphism,
)
from .dlat import (
    DistLattice,
    Ideal,
    LatticeHom,
    PrimeFilter,
    all_lattice_homs,
    downset_lattice,
    frame_join_algebra,
    homs_to_2,
    ideal_image,
    ideal_join,
    ideal_lattice,
    ideal_union,
    is_distributive,
    join_irreducibles,
    lattice_from_poset,
    lattice_isomorphic,
    prime_filters,
    principal_ideal,
    two_lattice,
)
from .spaces import (
    ContinuousMap,
    FinSpace,
    discrete_space,
    homeomorphic,
    homeomorphism,
    indiscrete_space,
    open_set_frame,
    sierpinski,
    specialization_order,
)
from .frame import (
    center_lattice,
    center_view,
    check_coalgebra,
    coalgebra_structures,
    comultiplication_hom,
    counit_hom,
    gamma_coalgebra,
    is_boolean,
    is_compact,
    is_regular,
    is_spatial,
    is_stably_compact,
    spatiality_hom,
    spectrum,
    spectrum_map,
    way_below,
)
from .topspace import (
    OpenPrimeFilter,
    canonical_algebra,
    compactification_square,
    filter_algebra_structures,
    filter_map,
    filter_space,
    hausdorff_reflection,
    is_sober,
    mult_map,
    pairing_map,
    sobrification,
    t0_quotient,
    ultrafilter_comparison,
    ultrafilter_space,
    unit_map,
)
from .catengine import (
    AdjunctionInstance,
    AlgebraInstance,
    ComonadInstance,
    FunctorInstance,
    LawCheck,
    MonadInstance,
    NatTransInstance,
    Universe,
    check_adjunction,
    check_algebra,
    check_comonad_laws,
    check_functor_laws,
    check_lift_law,
    check_monad_laws,
    check_monad_morphism,
    check_naturality,
    comparison_algebra,
    compose_functors,
    identity_functor,
    inverse_comparison,
    lift_composite_iso,
    lift_monad,
    lift_monad_morphism,
)
from .instances import (
    FRAME_UNIVERSE,
    LOCALE_UNIVERSE,
    SPACE_UNIVERSE,
    compact_reflection_monad,
    compactification_collapse,
    filter_monad_on_spaces,
    ideal_comonad_on_frames,
    ideal_monad_on_frames,
    ideal_monad_on_locales,
    lifted_ideal_monad,
    open_spectrum_adjunction,
    run_suite,
    sobrification_monad,
    sobrification_to_filters,
)
from .documents import dumps, load_lattice, load_space, loads
from .universes import (
    all_continuous_maps,
    all_posets,
    all_spaces,
    all_spaces_upto,
    lattice_universe,
)

__version__ = "0.1.0"
