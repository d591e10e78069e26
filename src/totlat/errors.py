"""Exception hierarchy shared by all totlat modules."""


class TotlatError(Exception):
    """Base class for all totlat errors."""


class CycleDetected(TotlatError):
    """The reflexive-transitive closure of the covers violates antisymmetry."""


class UnknownLabel(TotlatError):
    """A cover pair or query references an undeclared element label."""


class DuplicateLabel(TotlatError, ValueError):
    """Two elements of a poset carry the same label."""


class NotComparable(TotlatError):
    """x <= y was required but does not hold."""


class NotALattice(TotlatError):
    """Some pair of elements lacks a unique join or meet."""

    def __init__(self, x, y, which):
        self.x = x
        self.y = y
        self.which = which  # "join" or "meet"
        super().__init__(f"pair ({x}, {y}) has no unique {which}")


class EmptyLattice(TotlatError):
    """A lattice needs at least one element: the empty poset has no bottom."""


class NotJoinMorphism(TotlatError):
    """A value table fails the join-preservation check."""

    def __init__(self, x, y):
        self.x = x
        self.y = y
        super().__init__(f"join not preserved at pair ({x}, {y})")


class SourceTargetMismatch(TotlatError):
    """Composition or sum of maps with incompatible lattices."""


class SignatureMismatch(TotlatError):
    """Formal sums with different source or target lattices were added."""


class NotAChain(TotlatError, ValueError):
    """Chain members are not strictly increasing in the ambient order."""


class ChainNotInZ(TotlatError):
    """The chain must contain both the bottom and the top element."""


class ChainNotInB(TotlatError):
    """The chain must contain the top element."""


class ChainNotInA(TotlatError):
    """The chain must contain the bottom element."""


class UnsupportedSpec(TotlatError):
    """Unknown or out-of-range lattice generator descriptor."""


class UnsupportedRing(TotlatError):
    """Unknown ring descriptor, or a coefficient that is not an int."""


class FeasibilityLimit(TotlatError):
    """An exhaustive enumeration would exceed the configured size bound."""


class ParseError(TotlatError):
    """Malformed lattice file or serialized formal sum."""


class UnknownCheck(TotlatError, ValueError):
    """A verification check name that the suite does not have."""
