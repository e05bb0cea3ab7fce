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
from .spaces import (
    discrete_space,
    homeomorphic,
    indiscrete_space,
    open_set_frame,
    sierpinski,
)
from .frame import spectrum
from .topspace import filter_space, is_sober, pairing_map, sobrification, t0_quotient
from .catengine import check_monad_laws
from .instances import (
    COMPACT_REFLECTION_MONAD,
    FILTER_MONAD_ON_SPACES,
    LIFTED_IDEAL_MONAD,
)
from .documents import dumps
from .universes import all_spaces

__version__ = "0.1.0"
