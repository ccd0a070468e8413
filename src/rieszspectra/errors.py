"""Exception types shared across the package."""


class RieszSpectraError(Exception):
    """Base class for all package errors."""


class AmbiguousEndpoint(RieszSpectraError):
    """A comparison or rounding could not be decided at working precision."""


class InvalidInput(RieszSpectraError):
    """A precondition on user-supplied data was violated."""


class ResourceLimit(RieszSpectraError):
    """A configured enumeration or sieve budget would be exceeded."""


class NotFound(RieszSpectraError):
    """No prime up to the given limit satisfies the ordering conditions."""

    def __init__(self, prime_limit, message=None):
        self.prime_limit = prime_limit
        super().__init__(message or f"no admissible prime <= {prime_limit}")


class IndependenceSuspect(InvalidInput):
    """A rational relation among the endpoint values was detected."""

    def __init__(self, relation, message=None):
        self.relation = relation
        super().__init__(message or f"rational relation detected: {relation}")


class OverlappingTerms(RieszSpectraError):
    """Two coset terms produced the same integer inside a window."""


class IncompatibleShift(RieszSpectraError):
    """Shift amount is not a multiple of the spectrum's scale."""


class LevelNotInNZ(InvalidInput):
    """A level spectrum is not contained in the required lattice."""


class NotPrime(InvalidInput):
    """An operation requiring a prime modulus received a composite."""


class NotPermutation(InvalidInput):
    """Shift factors do not form a permutation of 1..N."""


class EmptySubset(InvalidInput):
    """An index subset that must be nonempty was empty."""


class DegenerateCoverage(RieszSpectraError):
    """A level pattern lacks the full cells the assembly requires."""


class UnsupportedASet(RieszSpectraError):
    """A folded level set is outside the supported generator regimes."""


class InvalidSubset(InvalidInput):
    """Coordinate subsets for the finite duality test are out of range."""


class EmptyWindow(InvalidInput):
    """No frequencies fall inside the requested window."""


class ConstructionError(RieszSpectraError):
    """An internal invariant of a construction failed."""


class TruncationWarning(UserWarning):
    """Coefficient tails exceeded the reporting threshold."""
