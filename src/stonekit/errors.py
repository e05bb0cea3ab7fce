"""Exception types shared across the package.

Every error carries a concrete witness where one exists, so a failed
check can always be replayed by hand.
"""


class StonekitError(Exception):
    """Base class for all package errors."""


class InvalidValue(StonekitError, ValueError):
    """A constructor's check failed: the values given do not form the
    structure (poset, lattice, lattice map, space, continuous map) asked
    for. Also a ValueError, as these checks raised before."""


class CycleError(StonekitError):
    """Raised when a relation closure violates antisymmetry.

    witness: a pair (x, y) with x <= y and y <= x for distinct x, y.
    """

    def __init__(self, witness):
        self.witness = witness
        super().__init__(f"order cycle through {witness[0]!r} and {witness[1]!r}")


class NotALattice(StonekitError):
    """A bounded-lattice candidate is missing a meet or a join."""

    def __init__(self, kind, witness):
        self.kind = kind
        self.witness = witness
        super().__init__(f"no {kind} for pair {witness!r}")


class NotDistributive(StonekitError):
    """Lattice fails a ^ (b v c) = (a ^ b) v (a ^ c); witness is the triple."""

    def __init__(self, witness):
        self.witness = witness
        super().__init__(f"distributivity fails at triple {witness!r}")


class NotATopology(StonekitError):
    """A space's specialization relation is not a preorder on its points, or
    a set mask reaches past the points."""


class UniverseMismatch(StonekitError):
    """Composite of instance-level maps whose endpoints do not line up."""


class CounitNotIso(StonekitError):
    """Inverse comparison functor requested where the counit is not invertible."""

    def __init__(self, at):
        self.at = at
        super().__init__(f"counit component not invertible at {at}")


class HypothesisFailed(StonekitError):
    """A lifting construction was asked to run outside its hypotheses."""


class NoCanonicalAlgebra(StonekitError):
    """Space admits no canonical filter-monad algebra; witness: unseparated pair."""

    def __init__(self, witness):
        self.witness = witness
        super().__init__(
            f"points {witness[0]!r} and {witness[1]!r} share a neighborhood filter"
        )


class ParseError(StonekitError):
    """Document text is not a valid lattice/space description."""

    def __init__(self, message, line=None):
        self.message = message
        self.line = line
        at = f" (line {line})" if line is not None else ""
        super().__init__(message + at)


class InvariantViolated(StonekitError):
    """A fact that a construction relies on fails on a value it built;
    the message names the fact and where it failed."""


class BudgetExceeded(StonekitError):
    """Requested enumeration exceeds the guard-rail size limits."""
