"""Exception hierarchy shared by all malle_lab modules."""


class MalleLabError(Exception):
    """Base class for all errors raised by this package."""


class DegreeMismatch(MalleLabError):
    """Permutations of different degrees were combined."""


class OrderCapExceeded(MalleLabError):
    """Group closure grew past the configured order cap."""


class NotASubgroup(MalleLabError):
    """A claimed subgroup is not contained in the ambient group."""


class NonCyclicQuotient(MalleLabError):
    """N/G is not cyclic, so no cyclic complement data exists."""


class TrivialGroup(MalleLabError):
    """The operation is undefined for the trivial group."""


class NotSplit(MalleLabError):
    """G has no cyclic complement in N; the split hypothesis fails."""


class NotAHomomorphism(MalleLabError):
    """A supplied unit-to-coset table is not a group homomorphism."""


class BadModulus(MalleLabError):
    """The cyclotomic level is too small for the classes acted on."""


class NotAPrimePower(MalleLabError):
    """A field size q is not a prime power, so F_q does not exist."""


class FieldSizeOutOfRange(MalleLabError):
    """A field size q is a power of a number too large to test for primality."""


class EnumerationCapExceeded(MalleLabError):
    """Tuple enumeration grew past the configured cap."""

    def __init__(self, message, partial=None):
        super().__init__(message)
        self.partial = partial


class InvariantViolation(MalleLabError):
    """A computed result broke an invariant that the algorithm guarantees."""


class TrivialClassPresent(MalleLabError):
    """A block built from the identity class was passed downstream."""


class InsufficientRange(MalleLabError):
    """Too few series coefficients for a meaningful asymptotic fit."""


class ParseError(MalleLabError):
    """Cycle-notation text failed to parse."""

    def __init__(self, message, position):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class PointOutOfRange(MalleLabError):
    """A cycle mentions a point outside 1..degree."""


class UnknownPreset(MalleLabError):
    """No preset scenario with the requested name exists."""


class UnknownSubgroup(MalleLabError, KeyError):
    """A group spec has no named subgroup of the requested name.

    str() is the message itself, not the quoted repr KeyError gives.
    """

    __str__ = Exception.__str__
